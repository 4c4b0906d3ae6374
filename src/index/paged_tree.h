// PagedTree: one index tree as its node pages, read in place.
//
// After construction an index keeps no tree nodes, only this: the tree's
// shape (TreeMeta), its page layout, and the PageStore that serves its
// pages at page ids [base, base + node_count).  A built engine's trees
// share its in-memory page array, an opened engine's trees share the
// index file; a tree built on its own (tests, benches, ablations) owns a
// private page array.  A query's read goes through the BufferPool its
// caller passes and views the frame's page; validators, statistics and
// Save peek at pages outside any pool.
#ifndef STPQ_INDEX_PAGED_TREE_H_
#define STPQ_INDEX_PAGED_TREE_H_

#include <memory>
#include <utility>
#include <vector>

#include "rtree/node_page.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "util/logging.h"

namespace stpq {

class PagedTree {
 public:
  /// Reads the pages `pages` serves (not owned; must outlive the tree).
  PagedTree(TreeMeta meta, const PageLayout& layout, const PageStore* pages,
            PageId base)
      : meta_(std::move(meta)), layout_(layout), pages_(pages), base_(base) {}

  /// Owns `image`'s pages in a private in-memory page array.
  PagedTree(TreeImage image, const PageLayout& layout, PageId base)
      : PagedTree(image.meta, layout, nullptr, base) {
    std::vector<SimulatedPageStore::Extent> extents;
    if (image.meta.node_count > 0) {
      extents.push_back({base, image.meta.node_count, image.slot_bytes,
                         std::move(image.pages)});
    }
    own_pages_ = std::make_unique<SimulatedPageStore>(std::move(extents));
    pages_ = own_pages_.get();
  }

  PagedTree(PagedTree&&) = default;
  PagedTree& operator=(PagedTree&&) = default;

  /// Reads node `id`: one page access through `pool`, which must read
  /// this tree's store.
  [[nodiscard]] NodeView ReadNode(BufferPool& pool, NodeId id) const {
    return View(ReadPage(pool, id));
  }

  /// Reads node `id` without charging any pool (validators, statistics).
  [[nodiscard]] NodeView PeekNode(NodeId id) const {
    return View(PeekPage(id));
  }

  /// The page of node `id`, read through `pool` as ReadNode does, for a
  /// reader that views the node only on a miss (the relevant-children
  /// memo).
  [[nodiscard]] PageView ReadPage(BufferPool& pool, NodeId id) const {
    STPQ_DCHECK(&pool.page_store() == pages_);
    return pool.Access(base_ + id);
  }

  /// The raw page of node `id`, outside any pool (Save writes these).
  [[nodiscard]] PageView PeekPage(NodeId id) const {
    return PageView::Unpooled(*pages_, base_ + id);
  }

  /// The node on `page`, a page of this tree.
  [[nodiscard]] NodeView View(PageView page) const {
    return NodeView(std::move(page), layout_, meta_.max_entries);
  }

  /// Writable page of node `id` for deliberate-corruption tests; only a
  /// tree that owns its pages has one.
  [[nodiscard]] uint8_t* MutablePageForTest(NodeId id) {
    STPQ_CHECK(own_pages_ != nullptr);
    return own_pages_->MutablePageForTest(base_ + id);
  }

  [[nodiscard]] NodeId root_id() const { return meta_.root; }
  [[nodiscard]] uint32_t height() const { return meta_.height; }
  [[nodiscard]] uint64_t size() const { return meta_.size; }
  [[nodiscard]] uint32_t node_count() const {
    return static_cast<uint32_t>(meta_.node_count);
  }
  [[nodiscard]] uint32_t max_entries() const { return meta_.max_entries; }
  [[nodiscard]] const TreeMeta& meta() const { return meta_; }
  [[nodiscard]] const PageLayout& layout() const { return layout_; }
  [[nodiscard]] const PageStore& pages() const { return *pages_; }

 private:
  TreeMeta meta_;
  PageLayout layout_;
  std::unique_ptr<SimulatedPageStore> own_pages_;
  const PageStore* pages_;
  PageId base_;
};

}  // namespace stpq

#endif  // STPQ_INDEX_PAGED_TREE_H_
