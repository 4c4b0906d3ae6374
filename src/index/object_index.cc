#include "index/object_index.h"

#include <cstdint>

#include "debug/validate.h"
#include "obs/trace.h"

namespace stpq {

TreeImage ObjectIndex::Pack(const std::vector<DataObject>& objects,
                            const IndexBuildParams& params) {
  std::vector<PageEntry> entries;
  std::vector<SortPoint> points;
  entries.reserve(objects.size());
  points.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    entries.push_back(LeafEntry(static_cast<uint32_t>(i), objects[i]));
    points.push_back(LeafSortPoint(objects[i]));
  }
  SortByHilbertKey(&entries, points);
  return PackTree(std::move(entries), Layout(), params.page_size_bytes,
                  params.fill);
}

namespace {
Rect2 DomainOf(const std::vector<DataObject>& objects) {
  Rect2 domain = Rect2::Empty();
  for (const DataObject& o : objects) domain.Enlarge(PointRect(o.pos));
  return domain;
}
}  // namespace

ObjectIndex::ObjectIndex(const std::vector<DataObject>* objects,
                         const IndexBuildParams& params)
    : objects_(objects),
      tree_(Pack(*objects, params), Layout(), TreePageBase(0)),
      domain_(DomainOf(*objects)) {
  STPQ_VALIDATE(ValidateObjectIndex(*this));
}

ObjectIndex::ObjectIndex(const std::vector<DataObject>* objects,
                         TreeMeta meta, const PageStore* pages)
    : objects_(objects),
      tree_(std::move(meta), Layout(), pages, TreePageBase(0)),
      domain_(DomainOf(*objects)) {}

void ObjectIndex::RangeQuery(BufferPool& pool, const Point& center,
                             double radius, std::vector<ObjectId>* out,
                             std::vector<NodeId>* stack,
                             QueryStats* stats) const {
  out->clear();
  const Rect2 box = MakeRect2(center.x - radius, center.y - radius,
                              center.x + radius, center.y + radius);
  const double r2 = radius * radius;
  WalkRegion(
      pool, SIZE_MAX, [&](const Rect2& rect) { return box.Intersects(rect); },
      [&](ObjectId id, const Point& p) {
        const bool in_range = SquaredDistance(p, center) <= r2;
        if (in_range) out->push_back(id);
        return in_range;
      },
      stack, stats);
}

}  // namespace stpq
