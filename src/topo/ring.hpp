// Ring topology of N nodes connected sequentially, as in TeraRack: node i is
// physically adjacent to node (i+1) mod N.  The optical fabric consists of
// two counter-rotating waveguides; a transfer travels either clockwise
// (increasing indices) or counter-clockwise, passing through the micro-ring
// resonators of intermediate nodes without being dropped.
//
// Terminology used throughout the repo:
//  * span s   — the physical fiber span between node s and node s+1 (mod N).
//  * arc      — a contiguous run of spans traversed in one direction.
//  * distance — number of spans a transfer crosses (= hop count).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace wrht::topo {

using NodeId = std::uint32_t;
using SpanId = std::uint32_t;

enum class Direction : std::uint8_t { kClockwise = 0, kCounterClockwise = 1 };

[[nodiscard]] constexpr Direction opposite(Direction d) {
  return d == Direction::kClockwise ? Direction::kCounterClockwise
                                    : Direction::kClockwise;
}

[[nodiscard]] const char* direction_name(Direction d);

/// A contiguous run of spans on one waveguide.  `first` is the span id at
/// which the arc begins *in traversal order*: a clockwise arc covers spans
/// first, first+1, ..., first+length-1 (mod N); a counter-clockwise arc
/// covers first, first-1, ..., first-length+1 (mod N).
struct Arc {
  Direction direction = Direction::kClockwise;
  SpanId first = 0;
  std::uint32_t length = 0;

  [[nodiscard]] bool empty() const { return length == 0; }
};

/// The span ids an arc covers, in traversal order, computed on the fly: a
/// value holding (first, length, direction, ring size), so walking an arc
/// never touches the heap.  Iterating yields first, then each next span
/// clockwise (first+1, ...) or counter-clockwise (first-1, ...) mod N;
/// size() is the arc's length and an empty arc yields nothing.
class SpanRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SpanId;
    using difference_type = std::ptrdiff_t;
    using reference = SpanId;

    iterator() = default;
    iterator(SpanId span, std::uint32_t remaining, Direction direction,
             std::uint32_t num_spans)
        : span_(span), remaining_(remaining), direction_(direction),
          num_spans_(num_spans) {}

    [[nodiscard]] SpanId operator*() const { return span_; }
    iterator& operator++() {
      if (direction_ == Direction::kClockwise) {
        span_ = span_ + 1 == num_spans_ ? 0 : span_ + 1;
      } else {
        span_ = (span_ == 0 ? num_spans_ : span_) - 1;
      }
      --remaining_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    // Iterators of one range differ only in how many spans remain.
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.remaining_ == b.remaining_;
    }

   private:
    SpanId span_ = 0;
    std::uint32_t remaining_ = 0;
    Direction direction_ = Direction::kClockwise;
    std::uint32_t num_spans_ = 0;
  };

  SpanRange(const Arc& arc, std::uint32_t num_spans)
      : arc_(arc), num_spans_(num_spans) {}

  [[nodiscard]] iterator begin() const {
    return {arc_.first, arc_.length, arc_.direction, num_spans_};
  }
  [[nodiscard]] iterator end() const { return {}; }
  [[nodiscard]] std::uint32_t size() const { return arc_.length; }

 private:
  Arc arc_;
  std::uint32_t num_spans_;
};

class RingTopology {
 public:
  explicit RingTopology(std::uint32_t num_nodes);

  [[nodiscard]] std::uint32_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::uint32_t num_spans() const { return num_nodes_; }

  /// Hops from src to dst travelling clockwise (0 when src == dst).
  [[nodiscard]] std::uint32_t distance_cw(NodeId src, NodeId dst) const;
  /// Hops from src to dst in the given direction.
  [[nodiscard]] std::uint32_t distance(NodeId src, NodeId dst,
                                       Direction dir) const;
  /// min over both directions.
  [[nodiscard]] std::uint32_t shortest_distance(NodeId src, NodeId dst) const;
  /// The direction realizing shortest_distance; ties broken clockwise.
  [[nodiscard]] Direction shortest_direction(NodeId src, NodeId dst) const;

  /// The arc a transfer from src to dst occupies in direction `dir`.
  /// Requires src != dst.
  [[nodiscard]] Arc arc(NodeId src, NodeId dst, Direction dir) const;

  /// Span ids covered by an arc, in traversal order, as an allocation-free
  /// range.  Requires arc.first < num_spans() and arc.length <= num_spans().
  [[nodiscard]] SpanRange spans(const Arc& arc) const;

  /// The arc as an increasing circular interval: it covers spans start,
  /// start+1, ..., start+length-1 (mod N), where start is `first` for a
  /// clockwise arc and first-length+1 (mod N) for a counter-clockwise one.
  [[nodiscard]] SpanId arc_start(const Arc& a) const {
    return a.direction == Direction::kClockwise
               ? a.first
               : (a.first + num_nodes_ + 1 - a.length) % num_nodes_;
  }

  /// Whether two arcs share at least one span *on the same waveguide*.
  /// Arcs on opposite directions never conflict (separate waveguides).
  [[nodiscard]] bool arcs_conflict(const Arc& a, const Arc& b) const;

  /// Whether `span` is covered by `arc`.
  [[nodiscard]] bool arc_covers(const Arc& arc, SpanId span) const;

  /// The node reached after `hops` spans from `src` in direction `dir`.
  [[nodiscard]] NodeId advance(NodeId src, std::uint32_t hops,
                               Direction dir) const;

 private:
  void check_node(NodeId node) const;

  std::uint32_t num_nodes_;
};

}  // namespace wrht::topo
