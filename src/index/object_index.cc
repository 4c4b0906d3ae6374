#include "index/object_index.h"

#include "debug/validate.h"
#include "obs/trace.h"
#include "rtree/bulk_load.h"

namespace stpq {

namespace {
RTreeOptions MakeTreeOptions(const ObjectIndexOptions& opts) {
  RTreeOptions t;
  t.max_entries = ObjectIndex::FanOut(opts.page_size_bytes);
  t.buffer_pool = opts.buffer_pool;
  t.page_base = opts.page_base;
  return t;
}
}  // namespace

uint32_t ObjectIndex::FanOut(uint32_t page_size) {
  return FanOutForPage(page_size, 2, /*aug_bytes=*/0);
}

ObjectIndex::ObjectIndex(const std::vector<DataObject>* objects,
                         const ObjectIndexOptions& options)
    : objects_(objects), tree_(MakeTreeOptions(options)) {
  using Entry = RTree<2>::Entry;
  std::vector<Entry> records;
  records.reserve(objects_->size());
  for (size_t i = 0; i < objects_->size(); ++i) {
    records.push_back(LeafEntry(static_cast<uint32_t>(i), (*objects_)[i]));
  }
  domain_ = ComputeDomain<2, NoAug>(records);
  SortByHilbertKey<2, NoAug>(&records, domain_);
  tree_.BulkLoadSorted(records, options.fill);
  STPQ_VALIDATE(ValidateObjectIndex(*this));
}

ObjectIndex::ObjectIndex(const std::vector<DataObject>* objects,
                         const ObjectIndexOptions& options,
                         RestoredTreeData<2, NoAug> restored)
    : objects_(objects), tree_(MakeTreeOptions(options)) {
  AdoptRestoredTree(&tree_, std::move(restored));
  domain_ = Rect2::Empty();
  for (const DataObject& o : *objects_) domain_.Enlarge(PointRect(o.pos));
  STPQ_VALIDATE(ValidateObjectIndex(*this));
}

void ObjectIndex::RangeQuery(const Point& center, double radius,
                             std::vector<ObjectId>* out,
                             std::vector<NodeId>* stack,
                             QueryStats* stats) const {
  out->clear();
  if (tree_.root_id() == kInvalidNodeId) return;
  Rect2 box = MakeRect2(center.x - radius, center.y - radius,
                        center.x + radius, center.y + radius);
  const double r2 = radius * radius;
  // Same traversal as RTree::ForEachInRange (LIFO stack, identical page
  // order), unrolled here so node expansions can feed the traversal
  // profile.
  stack->assign(1, tree_.root_id());
  while (!stack->empty()) {
    NodeId nid = stack->back();
    stack->pop_back();
    const RTree<2>::Node& node = tree_.ReadNode(nid);
    uint32_t pruned = 0;
    uint32_t descended = 0;
    for (const auto& e : node.entries) {
      if (!box.Intersects(e.rect)) {
        ++pruned;
        continue;
      }
      if (node.IsLeaf()) {
        Point p{e.rect.lo[0], e.rect.lo[1]};
        if (SquaredDistance(p, center) <= r2) {
          out->push_back(e.id);
          ++descended;
        } else {
          ++pruned;
        }
      } else {
        stack->push_back(e.id);
        ++descended;
      }
    }
    if (stats != nullptr) {
      RecordNodeVisit(*stats, kTraceObjectTree, node.level, nid, pruned,
                      descended);
    }
  }
}

}  // namespace stpq
