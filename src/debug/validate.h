// Deep structural invariant validators.
//
// Every validator returns Status::OK() on a healthy structure and a
// non-OK Status whose message names the violated invariant and the path to
// the offending node/entry (e.g. "root->n12[e3]: child MBR not contained").
// They never abort, so tests can exercise deliberate corruption, and the
// `stpq_cli validate` subcommand can report violations to users.
//
// Index build paths run these behind the STPQ_VALIDATE macro
// (util/logging.h): enabled in debug builds, compiled away in release, so
// later refactors of the sort and the packer get an automatic safety net
// under `ctest` without taxing production binaries.
#ifndef STPQ_DEBUG_VALIDATE_H_
#define STPQ_DEBUG_VALIDATE_H_

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "index/ir2_tree.h"
#include "index/object_index.h"
#include "index/paged_tree.h"
#include "index/srt_index.h"
#include "rtree/node_page.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace stpq {

namespace validate_internal {

/// "root" for the root node, "root->n12[e3]" for node 12 reached through
/// entry 3 of its parent, and so on.
inline std::string ChildPath(const std::string& parent_path, NodeId child,
                             size_t entry_slot) {
  return parent_path + "->n" + std::to_string(child) + "[e" +
         std::to_string(entry_slot) + "]";
}

/// The entry count a node's page header claims (NodeView clamps what it
/// exposes to the fan-out, so the validators read the header itself).
inline uint32_t StoredCount(const NodeView& node) {
  const std::span<const uint8_t> bytes = node.page().bytes();
  if (bytes.size() < kNodeHeaderBytes) return 0;
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 4, sizeof(count));
  return count;
}

/// "[lo0,hi0]x[lo1,hi1]" for violation messages.
inline std::string FormatRect(const Rect2& r) {
  std::string out = "[";
  out += std::to_string(r.lo[0]) + "," + std::to_string(r.hi[0]) + "]x[" +
         std::to_string(r.lo[1]) + "," + std::to_string(r.hi[1]) + "]";
  return out;
}

}  // namespace validate_internal

/// Structural validation of a paged tree (the pages an index reads):
///   * node levels decrease by exactly one per step and all leaves sit at
///     level 0 (uniform leaf depth);
///   * every node holds between 1 and max_entries entries (the packer may
///     legally leave each level's last node under MinEntries);
///   * each internal entry's MBR is exactly the union of its child's
///     entry MBRs (containment + tightness);
///   * no node is reachable twice (no sharing/cycles) and every node is
///     reachable (a packed tree has no unused slots);
///   * the number of leaf records equals tree.size().
///
/// `summary_check(parent, i, child, j)` is called for every entry j of
/// every child node against the parent entry i summarizing that node — the
/// hook where augmentation dominance (max-score bounds, keyword supersets)
/// is verified.  `entry_check(node, i)` is called once per entry for
/// self-consistency checks.  Both return Status; ValidatePagedTree
/// prefixes the node path to whatever message they produce.  Pages are
/// read without charging any pool.
template <typename SummaryCheck, typename EntryCheck>
Status ValidatePagedTree(const PagedTree& tree, SummaryCheck&& summary_check,
                         EntryCheck&& entry_check) {
  using validate_internal::ChildPath;
  using validate_internal::FormatRect;

  if (tree.root_id() == kInvalidNodeId) {
    if (tree.height() != 0) {
      return Status::Internal("empty R-tree has height " +
                              std::to_string(tree.height()));
    }
    if (tree.size() != 0) {
      return Status::Internal("empty R-tree reports size " +
                              std::to_string(tree.size()));
    }
    return Status::OK();
  }
  if (tree.root_id() >= tree.node_count()) {
    return Status::Internal("root id " + std::to_string(tree.root_id()) +
                            " out of range (node count " +
                            std::to_string(tree.node_count()) + ")");
  }

  std::vector<bool> visited(tree.node_count(), false);
  uint64_t leaf_records = 0;

  struct Frame {
    NodeId id;
    uint16_t expected_level;
    std::string path;
  };
  std::vector<Frame> stack;
  stack.push_back(
      {tree.root_id(), static_cast<uint16_t>(tree.height() - 1), "root"});

  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    if (visited[frame.id]) {
      return Status::Internal(frame.path + ": node " +
                              std::to_string(frame.id) +
                              " reachable through two paths (shared subtree "
                              "or cycle)");
    }
    visited[frame.id] = true;

    const NodeView node = tree.PeekNode(frame.id);
    if (node.level() != frame.expected_level) {
      return Status::Internal(
          frame.path + ": node level " + std::to_string(node.level()) +
          " does not match expected depth level " +
          std::to_string(frame.expected_level) +
          " (leaf depth must be uniform)");
    }
    const uint32_t stored = validate_internal::StoredCount(node);
    if (stored > tree.max_entries()) {
      return Status::Internal(
          frame.path + ": node holds " + std::to_string(stored) +
          " entries, above max_entries " +
          std::to_string(tree.max_entries()));
    }
    if (node.size() == 0) {
      return Status::Internal(frame.path + ": node has no entries");
    }

    for (uint32_t i = 0; i < node.size(); ++i) {
      Status entry_st = entry_check(node, i);
      if (!entry_st.ok()) {
        return Status::Internal(frame.path + "[e" + std::to_string(i) +
                                "]: " + entry_st.message());
      }
    }

    if (node.IsLeaf()) {
      leaf_records += node.size();
      continue;
    }

    for (uint32_t i = 0; i < node.size(); ++i) {
      const NodeId child_id = node.id(i);
      if (child_id >= tree.node_count()) {
        return Status::Internal(frame.path + "[e" + std::to_string(i) +
                                "]: child node id " +
                                std::to_string(child_id) + " out of range");
      }
      const NodeView child = tree.PeekNode(child_id);
      const std::string child_path = ChildPath(frame.path, child_id, i);
      if (child.size() == 0) {
        return Status::Internal(child_path + ": child node has no entries");
      }
      // The parent entry's MBR must be the exact union of the child's.
      const Rect2 rect = node.mbr(i);
      Rect2 unioned = child.mbr(0);
      for (uint32_t j = 1; j < child.size(); ++j) {
        unioned.Enlarge(child.mbr(j));
      }
      for (int d = 0; d < 2; ++d) {
        if (unioned.lo[d] != rect.lo[d] || unioned.hi[d] != rect.hi[d]) {
          return Status::Internal(
              child_path + ": parent entry MBR " + FormatRect(rect) +
              " is not the exact union " + FormatRect(unioned) +
              " of the child's entry MBRs (dim " + std::to_string(d) + ")");
        }
      }
      for (uint32_t j = 0; j < child.size(); ++j) {
        Status st = summary_check(node, i, child, j);
        if (!st.ok()) {
          return Status::Internal(child_path + "[e" + std::to_string(j) +
                                  "]: " + st.message());
        }
      }
      stack.push_back({child_id,
                       static_cast<uint16_t>(frame.expected_level - 1),
                       child_path});
    }
  }

  if (leaf_records != tree.size()) {
    return Status::Internal(
        "tree reports size " + std::to_string(tree.size()) + " but holds " +
        std::to_string(leaf_records) + " leaf records");
  }
  uint64_t reached = 0;
  for (bool v : visited) reached += v ? 1 : 0;
  if (reached != tree.node_count()) {
    return Status::Internal(
        std::to_string(reached) + " reachable nodes do not account for all " +
        std::to_string(tree.node_count()) + " allocated nodes");
  }
  return Status::OK();
}

/// SRT-index validation (Section 4 invariants): R-tree structure, per-entry
/// aggregate score upper bounds dominating children, node keyword sets
/// supersets of their children, keyword columns inside the universe, leaf
/// entries matching the feature table, every e.s inside [0,1], and
/// non-decreasing Hilbert keys of the leaves' mapped 4-D points,
/// re-derived from the table, across the leaf level.
[[nodiscard]] Status ValidateSrtIndex(const SrtIndex& index);

/// Modified IR2-tree validation: R-tree structure, max-score dominance,
/// node signatures covering child signatures, leaf signatures/scores
/// matching the feature table, and non-decreasing Hilbert keys of the
/// leaves' 2-D points across the leaf level.
[[nodiscard]] Status ValidateIr2Tree(const Ir2Tree& index);

/// Feature-index validation: ValidateSrtIndex or ValidateIr2Tree, picked
/// by the index's type (one of the two FeatureIndexKinds).
[[nodiscard]] Status ValidateFeatureIndex(const FeatureIndex& index);

/// Object R-tree validation: structure, a bijection between leaf records
/// and the object collection, and non-decreasing Hilbert keys of the
/// objects' locations across the leaf level.
[[nodiscard]] Status ValidateObjectIndex(const ObjectIndex& index);

// ValidateBufferPool is declared in storage/buffer_pool.h (it needs friend
// access); re-exported here so validators have one include point.

}  // namespace stpq

#endif  // STPQ_DEBUG_VALIDATE_H_
