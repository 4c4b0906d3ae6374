#include "index/object_index.h"

#include <cstdint>

#include "debug/validate.h"
#include "obs/trace.h"
#include "rtree/bulk_load.h"

namespace stpq {

uint32_t ObjectIndex::FanOut(uint32_t page_size) {
  return FanOutForPage(page_size, 2, /*aug_bytes=*/0);
}

TreeImage ObjectIndex::Pack(const std::vector<DataObject>& objects,
                            const IndexBuildParams& params) {
  std::vector<TreeEntry<2>> records;
  records.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    records.push_back(LeafEntry(static_cast<uint32_t>(i), objects[i]));
  }
  SortByHilbertKey(&records);
  return PackTree(std::move(records), FanOut(params.page_size_bytes),
                  params.fill, Layout(), params.page_size_bytes);
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
