// Sequential skip list — the paper's §7 baseline ("SEQ"): plain inserts with
// no concurrency control of any kind.  Also used as the reference model in
// property tests.  Its nodes have ds::BatchedSkipList's layout, links that
// cache their target's key, so SEQ-vs-BAT rows compare the same nodes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "support/arena.hpp"
#include "support/rng.hpp"

namespace batcher::conc {

class SeqSkipList {
 public:
  using Key = std::int64_t;

  explicit SeqSkipList(std::uint64_t seed = 0xdecafbadULL) : rng_(seed) {
    head_ = allocate(0, kMaxHeight);
    for (int l = 0; l < kMaxHeight; ++l) head_->next[l] = Link{nullptr, kNoKey};
  }

  SeqSkipList(const SeqSkipList&) = delete;
  SeqSkipList& operator=(const SeqSkipList&) = delete;

  bool insert(Key key) {
    Node* preds[kMaxHeight];
    find_preds(key, preds);
    const Link hit = preds[0]->next[0];
    if (hit.node != nullptr && hit.key == key) return false;
    const int h = random_height();
    Node* node = allocate(key, h);
    if (h > height_) height_ = h;
    for (int l = 0; l < h; ++l) {
      node->next[l] = preds[l]->next[l];
      preds[l]->next[l] = Link{node, key};
    }
    ++size_;
    return true;
  }

  bool contains(Key key) const {
    const Node* cur = head_;
    for (int l = height_ - 1; l >= 0; --l) {
      while (cur->next[l].node != nullptr && cur->next[l].key < key) {
        cur = cur->next[l].node;
      }
    }
    const Link candidate = cur->next[0];
    return candidate.node != nullptr && candidate.key == key;
  }

  bool erase(Key key) {
    Node* preds[kMaxHeight];
    find_preds(key, preds);
    Node* hit = preds[0]->next[0].node;
    if (hit == nullptr || hit->key != key) return false;
    for (int l = 0; l < hit->height; ++l) {
      if (preds[l]->next[l].node == hit) preds[l]->next[l] = hit->next[l];
    }
    while (height_ > 1 && head_->next[height_ - 1].node == nullptr) --height_;
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr int kMaxHeight = 24;
  static constexpr Key kNoKey = std::numeric_limits<Key>::max();

  struct Node;
  struct Link {
    Node* node;
    Key key;  // node->key, or kNoKey when node is null
  };

  struct Node {
    Key key;
    int height;
    Link next[1];  // flexible
  };

  Node* allocate(Key key, int height) {
    const std::size_t bytes =
        sizeof(Node) + sizeof(Link) * static_cast<std::size_t>(height - 1);
    Node* n = static_cast<Node*>(arena_.allocate(bytes));
    n->key = key;
    n->height = height;
    return n;
  }

  // Geometric with p = 1/2, capped, as in ds::BatchedSkipList.
  int random_height() {
    return std::min(kMaxHeight, 1 + std::countr_one(rng_.next()));
  }

  void find_preds(Key key, Node** preds) {
    Node* cur = head_;
    for (int l = kMaxHeight - 1; l >= 0; --l) {
      if (l < height_) {
        while (cur->next[l].node != nullptr && cur->next[l].key < key) {
          cur = cur->next[l].node;
        }
      }
      preds[l] = cur;
    }
  }

  Node* head_;
  int height_ = 1;
  std::size_t size_ = 0;
  Xoshiro256 rng_;
  Arena arena_;
};

}  // namespace batcher::conc
