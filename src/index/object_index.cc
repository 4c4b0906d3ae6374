#include "index/object_index.h"

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

void ObjectIndex::RangeQuery(BufferPool* pool, const Point& center,
                             double radius, std::vector<ObjectId>* out,
                             std::vector<NodeId>* stack,
                             QueryStats* stats) const {
  out->clear();
  if (tree_.root_id() == kInvalidNodeId) return;
  Rect2 box = MakeRect2(center.x - radius, center.y - radius,
                        center.x + radius, center.y + radius);
  const double r2 = radius * radius;
  // Depth-first with a LIFO stack, unrolled here so node expansions can
  // feed the traversal profile.
  stack->assign(1, tree_.root_id());
  while (!stack->empty()) {
    NodeId nid = stack->back();
    stack->pop_back();
    const NodeView node = tree_.ReadNode(pool, nid);
    uint32_t pruned = 0;
    uint32_t descended = 0;
    for (uint32_t i = 0; i < node.size(); ++i) {
      const Rect2 rect = node.mbr(i);
      if (!box.Intersects(rect)) {
        ++pruned;
        continue;
      }
      if (node.IsLeaf()) {
        Point p{rect.lo[0], rect.lo[1]};
        if (SquaredDistance(p, center) <= r2) {
          out->push_back(node.id(i));
          ++descended;
        } else {
          ++pruned;
        }
      } else {
        stack->push_back(node.id(i));
        ++descended;
      }
    }
    if (stats != nullptr) {
      RecordNodeVisit(*stats, kTraceObjectTree, node.level(), nid, pruned,
                      descended);
    }
  }
}

}  // namespace stpq
