#include "apps/btree.h"

#include <cstring>
#include <new>

namespace apps {

// Node layouts. Leaves store value pointers (length-prefixed allocator
// buffers); inners store child pointers.
struct BTree::Node {
  bool is_leaf = true;
  int count = 0;  // keys in use
  std::int64_t keys[kOrder];
};

struct BTree::Leaf : BTree::Node {
  std::byte* values[kOrder];  // each: [u32 len][payload...]
  Leaf* next = nullptr;       // leaf chaining for scans
};

struct BTree::Inner : BTree::Node {
  Node* children[kOrder + 1];
};

BTree::BTree(ukalloc::Allocator* alloc) : alloc_(alloc) { root_ = NewLeaf(); }

BTree::~BTree() {
  if (root_ != nullptr) {
    DestroySubtree(root_);
  }
}

BTree::Node* BTree::NewLeaf() {
  void* mem = alloc_->Malloc(sizeof(Leaf));
  if (mem == nullptr) {
    return nullptr;
  }
  auto* leaf = new (mem) Leaf();
  leaf->is_leaf = true;
  return leaf;
}

BTree::Node* BTree::NewInner() {
  void* mem = alloc_->Malloc(sizeof(Inner));
  if (mem == nullptr) {
    return nullptr;
  }
  auto* inner = new (mem) Inner();
  inner->is_leaf = false;
  return inner;
}

void BTree::FreeNode(Node* n) {
  alloc_->Free(n);
}

void BTree::FreeValue(std::byte* v) { alloc_->Free(v); }

void BTree::DestroySubtree(Node* n) {
  if (n->is_leaf) {
    auto* leaf = static_cast<Leaf*>(n);
    for (int i = 0; i < leaf->count; ++i) {
      FreeValue(leaf->values[i]);
    }
  } else {
    auto* inner = static_cast<Inner*>(n);
    for (int i = 0; i <= inner->count; ++i) {
      DestroySubtree(inner->children[i]);
    }
  }
  FreeNode(n);
}

namespace {
// First index with key >= target.
int LowerBound(const std::int64_t* keys, int count, std::int64_t target) {
  int lo = 0;
  int hi = count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (keys[mid] < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}
}  // namespace

BTree::SplitResult BTree::InsertRec(Node* n, std::int64_t key,
                                    std::span<const std::byte> value) {
  SplitResult result;
  if (n->is_leaf) {
    auto* leaf = static_cast<Leaf*>(n);
    int idx = LowerBound(leaf->keys, leaf->count, key);
    if (idx < leaf->count && leaf->keys[idx] == key) {
      // Overwrite in place.
      auto* buf = static_cast<std::byte*>(alloc_->Malloc(4 + value.size()));
      if (buf == nullptr) {
        result.ok = false;
        return result;
      }
      std::uint32_t len = static_cast<std::uint32_t>(value.size());
      std::memcpy(buf, &len, 4);
      std::memcpy(buf + 4, value.data(), value.size());
      FreeValue(leaf->values[idx]);
      leaf->values[idx] = buf;
      return result;
    }
    auto* buf = static_cast<std::byte*>(alloc_->Malloc(4 + value.size()));
    if (buf == nullptr) {
      result.ok = false;
      return result;
    }
    std::uint32_t len = static_cast<std::uint32_t>(value.size());
    std::memcpy(buf, &len, 4);
    std::memcpy(buf + 4, value.data(), value.size());
    // Shift in.
    for (int i = leaf->count; i > idx; --i) {
      leaf->keys[i] = leaf->keys[i - 1];
      leaf->values[i] = leaf->values[i - 1];
    }
    leaf->keys[idx] = key;
    leaf->values[idx] = buf;
    ++leaf->count;
    ++size_;
    if (leaf->count < kOrder) {
      return result;
    }
    // Split the leaf.
    auto* right = static_cast<Leaf*>(NewLeaf());
    if (right == nullptr) {
      result.ok = false;
      return result;
    }
    int half = leaf->count / 2;
    right->count = leaf->count - half;
    for (int i = 0; i < right->count; ++i) {
      right->keys[i] = leaf->keys[half + i];
      right->values[i] = leaf->values[half + i];
    }
    leaf->count = half;
    right->next = leaf->next;
    leaf->next = right;
    result.split = true;
    result.sep = right->keys[0];
    result.right = right;
    return result;
  }

  auto* inner = static_cast<Inner*>(n);
  int idx = LowerBound(inner->keys, inner->count, key);
  if (idx < inner->count && inner->keys[idx] == key) {
    ++idx;  // equal separator: key lives in the right child
  }
  SplitResult child = InsertRec(inner->children[idx], key, value);
  if (!child.ok) {
    result.ok = false;
    return result;
  }
  if (!child.split) {
    return result;
  }
  // Install the new separator + right child.
  for (int i = inner->count; i > idx; --i) {
    inner->keys[i] = inner->keys[i - 1];
    inner->children[i + 1] = inner->children[i];
  }
  inner->keys[idx] = child.sep;
  inner->children[idx + 1] = child.right;
  ++inner->count;
  if (inner->count < kOrder) {
    return result;
  }
  // Split the inner node; middle key moves up.
  auto* right = static_cast<Inner*>(NewInner());
  if (right == nullptr) {
    result.ok = false;
    return result;
  }
  int mid = inner->count / 2;
  result.split = true;
  result.sep = inner->keys[mid];
  right->count = inner->count - mid - 1;
  for (int i = 0; i < right->count; ++i) {
    right->keys[i] = inner->keys[mid + 1 + i];
  }
  for (int i = 0; i <= right->count; ++i) {
    right->children[i] = inner->children[mid + 1 + i];
  }
  inner->count = mid;
  result.right = right;
  return result;
}

bool BTree::Insert(std::int64_t key, std::span<const std::byte> value) {
  if (root_ == nullptr) {
    return false;
  }
  SplitResult top = InsertRec(root_, key, value);
  if (!top.ok) {
    return false;
  }
  if (top.split) {
    auto* new_root = static_cast<Inner*>(NewInner());
    if (new_root == nullptr) {
      return false;
    }
    new_root->count = 1;
    new_root->keys[0] = top.sep;
    new_root->children[0] = root_;
    new_root->children[1] = top.right;
    root_ = new_root;
    ++height_;
  }
  return true;
}

std::optional<BTree::Payload> BTree::Find(std::int64_t key) const {
  const Node* n = root_;
  while (n != nullptr && !n->is_leaf) {
    const auto* inner = static_cast<const Inner*>(n);
    int idx = LowerBound(inner->keys, inner->count, key);
    if (idx < inner->count && inner->keys[idx] == key) {
      ++idx;
    }
    n = inner->children[idx];
  }
  if (n == nullptr) {
    return std::nullopt;
  }
  const auto* leaf = static_cast<const Leaf*>(n);
  int idx = LowerBound(leaf->keys, leaf->count, key);
  if (idx >= leaf->count || leaf->keys[idx] != key) {
    return std::nullopt;
  }
  std::uint32_t len = 0;
  std::memcpy(&len, leaf->values[idx], 4);
  return Payload{leaf->values[idx] + 4, len};
}

bool BTree::Erase(std::int64_t key) {
  // Lazy deletion from the leaf (no rebalancing — ukdb workloads are
  // insert/lookup heavy; underfull leaves are tolerated like SQLite's
  // free-at-close strategy for small tables).
  Node* n = root_;
  while (n != nullptr && !n->is_leaf) {
    auto* inner = static_cast<Inner*>(n);
    int idx = LowerBound(inner->keys, inner->count, key);
    if (idx < inner->count && inner->keys[idx] == key) {
      ++idx;
    }
    n = inner->children[idx];
  }
  if (n == nullptr) {
    return false;
  }
  auto* leaf = static_cast<Leaf*>(n);
  int idx = LowerBound(leaf->keys, leaf->count, key);
  if (idx >= leaf->count || leaf->keys[idx] != key) {
    return false;
  }
  FreeValue(leaf->values[idx]);
  for (int i = idx; i < leaf->count - 1; ++i) {
    leaf->keys[i] = leaf->keys[i + 1];
    leaf->values[i] = leaf->values[i + 1];
  }
  --leaf->count;
  --size_;
  return true;
}

void BTree::Scan(std::int64_t lo, std::int64_t hi,
                 const std::function<bool(std::int64_t, Payload)>& fn) const {
  // Descend to the leaf containing lo, then walk the chain.
  const Node* n = root_;
  while (n != nullptr && !n->is_leaf) {
    const auto* inner = static_cast<const Inner*>(n);
    int idx = LowerBound(inner->keys, inner->count, lo);
    if (idx < inner->count && inner->keys[idx] == lo) {
      ++idx;
    }
    n = inner->children[idx];
  }
  const auto* leaf = static_cast<const Leaf*>(n);
  while (leaf != nullptr) {
    for (int i = 0; i < leaf->count; ++i) {
      if (leaf->keys[i] < lo) {
        continue;
      }
      if (leaf->keys[i] > hi) {
        return;
      }
      std::uint32_t len = 0;
      std::memcpy(&len, leaf->values[i], 4);
      if (!fn(leaf->keys[i], Payload{leaf->values[i] + 4, len})) {
        return;
      }
    }
    leaf = leaf->next;
  }
}

bool BTree::CheckInvariants() const {
  // Walk the leaf chain: keys strictly increasing globally.
  const Node* n = root_;
  while (n != nullptr && !n->is_leaf) {
    n = static_cast<const Inner*>(n)->children[0];
  }
  const auto* leaf = static_cast<const Leaf*>(n);
  bool first = true;
  std::int64_t prev = 0;
  std::size_t counted = 0;
  while (leaf != nullptr) {
    for (int i = 0; i < leaf->count; ++i) {
      if (!first && leaf->keys[i] <= prev) {
        return false;
      }
      prev = leaf->keys[i];
      first = false;
      ++counted;
    }
    leaf = leaf->next;
  }
  return counted == size_;
}

}  // namespace apps
