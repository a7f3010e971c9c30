// apps/btree.h - B+tree keyed by int64, the storage engine under ukdb.
//
// Nodes and row payloads come from the unikernel's allocator, so the SQLite
// experiments (Figs 16, 17) exercise real allocator behaviour: inserts split
// nodes (allocations), deletes free payloads, and the allocator's speed and
// locality show up directly in query timings, as in the paper.
#ifndef APPS_BTREE_H_
#define APPS_BTREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "ukalloc/allocator.h"

namespace apps {

class BTree {
 public:
  static constexpr int kOrder = 32;  // max keys per node

  struct Payload {
    const std::byte* data = nullptr;
    std::size_t len = 0;
  };

  explicit BTree(ukalloc::Allocator* alloc);
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  // Inserts (copies |value| into allocator memory). Overwrites existing keys.
  // False on allocator exhaustion.
  bool Insert(std::int64_t key, std::span<const std::byte> value);
  std::optional<Payload> Find(std::int64_t key) const;
  bool Erase(std::int64_t key);

  // In-order scan over [lo, hi]; callback returns false to stop early.
  void Scan(std::int64_t lo, std::int64_t hi,
            const std::function<bool(std::int64_t, Payload)>& fn) const;

  std::size_t size() const { return size_; }
  int height() const { return height_; }

  // Test hook: checks ordering + occupancy invariants on every node.
  bool CheckInvariants() const;

 private:
  struct Node;
  struct Leaf;
  struct Inner;

  Node* NewLeaf();
  Node* NewInner();
  void FreeNode(Node* n);
  void FreeValue(std::byte* v);
  void DestroySubtree(Node* n);

  // Insert into subtree; returns a (separator, new right sibling) when the
  // child split, to be installed in the parent.
  struct SplitResult {
    bool split = false;
    bool ok = true;
    std::int64_t sep = 0;
    Node* right = nullptr;
  };
  SplitResult InsertRec(Node* n, std::int64_t key, std::span<const std::byte> value);

  ukalloc::Allocator* alloc_;
  Node* root_ = nullptr;
  std::size_t size_ = 0;
  int height_ = 1;
};

}  // namespace apps

#endif  // APPS_BTREE_H_
