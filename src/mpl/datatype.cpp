#include "mpl/datatype.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <tuple>
#include <type_traits>

#include "mpl/error.hpp"

namespace mpl {

namespace detail {

// Immutable node shared by Datatype handles. `blocks` is the canonical
// flattened representation of ONE element, in typemap (pack) order. It
// views either the node's own storage (OwnedNode) or a TypeArena's block
// array; the node itself is trivially destructible so an arena can hold
// many of them in one allocation.
struct TypeNode {
  std::span<const TypeBlock> blocks;
  std::size_t size = 0;         // sum of block lengths
  std::ptrdiff_t lb = 0;        // lower bound (possibly resized)
  std::ptrdiff_t ub = 0;        // upper bound (lb + extent)
  bool absolute = false;        // built from absolute addresses (use BOTTOM)

  /// Dense: one block covering the whole extent, so `count` consecutive
  /// elements tile into one contiguous byte range — pack/unpack collapse
  /// to a single memcpy instead of a per-element block loop. This is the
  /// transport's hottest case (every basic type and contiguous() thereof).
  [[nodiscard]] bool dense() const noexcept {
    return blocks.size() == 1 && blocks[0].disp == lb &&
           blocks[0].len == static_cast<std::size_t>(ub - lb);
  }
};
static_assert(std::is_trivially_destructible_v<TypeNode>);

/// A node that owns its block list (every type not built in a TypeArena).
struct OwnedNode : TypeNode {
  std::vector<TypeBlock> storage;
};

namespace {

// Append `b` to `out`, merging with the previous block when contiguous.
// `Out` is a std::vector<TypeBlock> or a TypeArena's open block list.
template <class Out>
void push_merged(Out& out, TypeBlock b) {
  if (b.len == 0) return;
  if (!out.empty() &&
      out.back().disp + static_cast<std::ptrdiff_t>(out.back().len) == b.disp) {
    out.back().len += b.len;
  } else {
    out.push_back(b);
  }
}

// Append one element of `t` shifted by `disp`.
void append_shifted(std::vector<TypeBlock>& out, const TypeNode& t,
                    std::ptrdiff_t disp) {
  for (const TypeBlock& b : t.blocks) {
    push_merged(out, TypeBlock{b.disp + disp, b.len});
  }
}

// Append the blocks of `count` elements of `n`, shifted by `base_disp`.
template <class Out>
void flatten_into(const TypeNode& n, std::ptrdiff_t base_disp, int count,
                  Out& out) {
  const std::ptrdiff_t ext = n.ub - n.lb;
  if (count <= 0) return;
  if (n.dense()) {
    // Consecutive elements tile one range: the merged list of the
    // element-wise loop below, in a single push.
    push_merged(out, TypeBlock{base_disp + n.lb,
                               static_cast<std::size_t>(ext) *
                                   static_cast<std::size_t>(count)});
    return;
  }
  for (int i = 0; i < count; ++i) {
    const std::ptrdiff_t shift = base_disp + static_cast<std::ptrdiff_t>(i) * ext;
    for (const TypeBlock& b : n.blocks) {
      push_merged(out, TypeBlock{b.disp + shift, b.len});
    }
  }
}

std::shared_ptr<const TypeNode> make_node(std::vector<TypeBlock> blocks,
                                          std::ptrdiff_t lb, std::ptrdiff_t ub,
                                          bool absolute = false) {
  auto n = std::make_shared<OwnedNode>();
  n->storage = std::move(blocks);
  n->blocks = n->storage;
  n->size = 0;
  for (const TypeBlock& b : n->blocks) n->size += b.len;
  n->lb = lb;
  n->ub = ub;
  n->absolute = absolute;
  return n;
}

// Natural footprint [lb, ub) of a block list (0-width for empty types).
std::pair<std::ptrdiff_t, std::ptrdiff_t> footprint(
    std::span<const TypeBlock> blocks) {
  if (blocks.empty()) return {0, 0};
  std::ptrdiff_t lo = blocks.front().disp;
  std::ptrdiff_t hi = blocks.front().disp;
  for (const TypeBlock& b : blocks) {
    lo = std::min(lo, b.disp);
    hi = std::max(hi, b.disp + static_cast<std::ptrdiff_t>(b.len));
  }
  return {lo, hi};
}

}  // namespace
}  // namespace detail

using detail::TypeNode;

const TypeNode& Datatype::node() const {
  MPL_REQUIRE(node_ != nullptr, "use of invalid (default-constructed) Datatype");
  return *node_;
}

Datatype Datatype::bytes(std::size_t n) {
  std::vector<TypeBlock> blocks;
  if (n > 0) blocks.push_back({0, n});
  return Datatype(detail::make_node(std::move(blocks), 0,
                                    static_cast<std::ptrdiff_t>(n)));
}

Datatype Datatype::contiguous(int count, const Datatype& t) {
  MPL_REQUIRE(count >= 0, "contiguous: negative count");
  const TypeNode& in = t.node();
  const std::ptrdiff_t ext = in.ub - in.lb;
  std::vector<TypeBlock> blocks;
  blocks.reserve(in.blocks.size() * static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    detail::append_shifted(blocks, in, static_cast<std::ptrdiff_t>(i) * ext);
  }
  return Datatype(detail::make_node(std::move(blocks), in.lb,
                                    in.lb + static_cast<std::ptrdiff_t>(count) * ext));
}

Datatype Datatype::vector(int count, int blocklen, int stride,
                          const Datatype& t) {
  const std::ptrdiff_t ext = t.node().ub - t.node().lb;
  return hvector(count, blocklen, stride * ext, t);
}

Datatype Datatype::hvector(int count, int blocklen,
                           std::ptrdiff_t stride_bytes, const Datatype& t) {
  MPL_REQUIRE(count >= 0 && blocklen >= 0, "hvector: negative count/blocklen");
  const TypeNode& in = t.node();
  const std::ptrdiff_t ext = in.ub - in.lb;
  std::vector<TypeBlock> blocks;
  for (int i = 0; i < count; ++i) {
    const std::ptrdiff_t start = static_cast<std::ptrdiff_t>(i) * stride_bytes;
    for (int j = 0; j < blocklen; ++j) {
      detail::append_shifted(blocks, in, start + static_cast<std::ptrdiff_t>(j) * ext);
    }
  }
  auto [lo, hi] = detail::footprint(blocks);
  return Datatype(detail::make_node(std::move(blocks), lo, hi));
}

Datatype Datatype::indexed(std::span<const int> blocklens,
                           std::span<const int> displs, const Datatype& t) {
  MPL_REQUIRE(blocklens.size() == displs.size(),
              "indexed: blocklens/displs size mismatch");
  const std::ptrdiff_t ext = t.node().ub - t.node().lb;
  std::vector<std::ptrdiff_t> byte_displs(displs.size());
  for (std::size_t i = 0; i < displs.size(); ++i) {
    byte_displs[i] = static_cast<std::ptrdiff_t>(displs[i]) * ext;
  }
  return hindexed(blocklens, byte_displs, t);
}

Datatype Datatype::indexed_block(int blocklen, std::span<const int> displs,
                                 const Datatype& t) {
  std::vector<int> blocklens(displs.size(), blocklen);
  return indexed(blocklens, displs, t);
}

Datatype Datatype::hindexed(std::span<const int> blocklens,
                            std::span<const std::ptrdiff_t> byte_displs,
                            const Datatype& t) {
  MPL_REQUIRE(blocklens.size() == byte_displs.size(),
              "hindexed: blocklens/displs size mismatch");
  const TypeNode& in = t.node();
  const std::ptrdiff_t ext = in.ub - in.lb;
  std::vector<TypeBlock> blocks;
  for (std::size_t i = 0; i < blocklens.size(); ++i) {
    MPL_REQUIRE(blocklens[i] >= 0, "hindexed: negative blocklen");
    for (int j = 0; j < blocklens[i]; ++j) {
      detail::append_shifted(blocks, in,
                             byte_displs[i] + static_cast<std::ptrdiff_t>(j) * ext);
    }
  }
  auto [lo, hi] = detail::footprint(blocks);
  return Datatype(detail::make_node(std::move(blocks), lo, hi));
}

Datatype Datatype::strukt(std::span<const int> blocklens,
                          std::span<const std::ptrdiff_t> byte_displs,
                          std::span<const Datatype> types) {
  MPL_REQUIRE(blocklens.size() == byte_displs.size() &&
                  blocklens.size() == types.size(),
              "strukt: argument size mismatch");
  std::vector<TypeBlock> blocks;
  for (std::size_t i = 0; i < blocklens.size(); ++i) {
    const TypeNode& in = types[i].node();
    const std::ptrdiff_t ext = in.ub - in.lb;
    MPL_REQUIRE(blocklens[i] >= 0, "strukt: negative blocklen");
    for (int j = 0; j < blocklens[i]; ++j) {
      detail::append_shifted(blocks, in,
                             byte_displs[i] + static_cast<std::ptrdiff_t>(j) * ext);
    }
  }
  auto [lo, hi] = detail::footprint(blocks);
  return Datatype(detail::make_node(std::move(blocks), lo, hi));
}

Datatype Datatype::subarray(std::span<const int> sizes,
                            std::span<const int> subsizes,
                            std::span<const int> starts, const Datatype& t) {
  const std::size_t d = sizes.size();
  MPL_REQUIRE(d >= 1, "subarray: need at least one dimension");
  MPL_REQUIRE(subsizes.size() == d && starts.size() == d,
              "subarray: argument arity mismatch");
  const TypeNode& in = t.node();
  const std::ptrdiff_t ext = in.ub - in.lb;
  long long total = 1;
  for (std::size_t k = 0; k < d; ++k) {
    MPL_REQUIRE(sizes[k] >= 1 && subsizes[k] >= 0 && starts[k] >= 0 &&
                    starts[k] + subsizes[k] <= sizes[k],
                "subarray: box out of bounds");
    total *= sizes[k];
  }
  // Enumerate the box rows (innermost dimension contiguous), in row-major
  // order, as one element-displacement per run.
  std::vector<TypeBlock> blocks;
  bool empty = false;
  for (std::size_t k = 0; k < d; ++k) empty = empty || subsizes[k] == 0;
  if (!empty) {
    std::vector<int> idx(starts.begin(), starts.end() - 1);
    bool more = true;
    while (more) {
      long long lin = 0;
      for (std::size_t k = 0; k + 1 < d; ++k) lin = lin * sizes[k] + idx[k];
      lin = lin * sizes[d - 1] + starts[d - 1];
      // One run of subsizes[d-1] elements of t.
      for (int j = 0; j < subsizes[d - 1]; ++j) {
        detail::append_shifted(blocks, in,
                               static_cast<std::ptrdiff_t>(lin + j) * ext);
      }
      if (d == 1) break;
      std::size_t k = d - 2;
      while (true) {
        if (++idx[k] < starts[k] + subsizes[k]) break;
        idx[k] = starts[k];
        if (k == 0) {
          more = false;
          break;
        }
        --k;
      }
    }
  }
  // Extent covers the full array (MPI subarray semantics).
  return Datatype(detail::make_node(std::move(blocks), 0,
                                    static_cast<std::ptrdiff_t>(total) * ext));
}

Datatype Datatype::resized(const Datatype& t, std::ptrdiff_t lb,
                           std::size_t extent) {
  const TypeNode& in = t.node();
  return Datatype(detail::make_node(
      std::vector<TypeBlock>(in.blocks.begin(), in.blocks.end()), lb,
                                    lb + static_cast<std::ptrdiff_t>(extent),
                                    in.absolute));
}

std::size_t Datatype::size() const { return node().size; }
std::ptrdiff_t Datatype::lb() const { return node().lb; }
std::ptrdiff_t Datatype::extent() const { return node().ub - node().lb; }
std::size_t Datatype::block_count() const { return node().blocks.size(); }

std::span<const TypeBlock> Datatype::blocks() const { return node().blocks; }

void Datatype::flatten(std::ptrdiff_t base_disp, int count,
                       std::vector<TypeBlock>& out) const {
  detail::flatten_into(node(), base_disp, count, out);
}

void Datatype::pack(const void* base, int count, std::byte* out) const {
  const TypeNode& n = node();
  // Nothing to move: `out` and `base` may both be null, and memcpy must
  // not see a null pointer even for zero bytes.
  if (n.size == 0 || count <= 0) return;
  const std::ptrdiff_t ext = n.ub - n.lb;
  const char* cbase = static_cast<const char*>(base);
  if (n.dense()) {
    std::memcpy(out, cbase + n.lb,
                static_cast<std::size_t>(ext) * static_cast<std::size_t>(count));
    return;
  }
  for (int i = 0; i < count; ++i) {
    const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(i) * ext;
    for (const TypeBlock& b : n.blocks) {
      std::memcpy(out, cbase + b.disp + shift, b.len);
      out += b.len;
    }
  }
}

void Datatype::unpack(const std::byte* in, void* base, int count) const {
  const TypeNode& n = node();
  if (n.size == 0 || count <= 0) return;
  const std::ptrdiff_t ext = n.ub - n.lb;
  char* cbase = static_cast<char*>(base);
  if (n.dense()) {
    std::memcpy(cbase + n.lb, in,
                static_cast<std::size_t>(ext) * static_cast<std::size_t>(count));
    return;
  }
  for (int i = 0; i < count; ++i) {
    const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(i) * ext;
    for (const TypeBlock& b : n.blocks) {
      std::memcpy(cbase + b.disp + shift, in, b.len);
      in += b.len;
    }
  }
}

std::size_t Datatype::unpack_partial(const std::byte* in, std::size_t nbytes,
                                     void* base, int count) const {
  const TypeNode& n = node();
  const std::ptrdiff_t ext = n.ub - n.lb;
  char* cbase = static_cast<char*>(base);
  std::size_t left = std::min(nbytes, pack_size(count));
  const std::size_t consumed = left;
  if (left == 0) return 0;
  if (n.dense()) {
    std::memcpy(cbase + n.lb, in, left);
    return consumed;
  }
  for (int i = 0; i < count && left > 0; ++i) {
    const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(i) * ext;
    for (const TypeBlock& b : n.blocks) {
      const std::size_t take = std::min(left, b.len);
      std::memcpy(cbase + b.disp + shift, in, take);
      in += take;
      left -= take;
      if (left == 0) break;
    }
  }
  return consumed;
}

namespace {

// Walks the packed byte stream of (base, count, type) as a sequence of
// contiguous memory pieces. A dense type is one piece covering all
// `count` elements.
class BlockCursor {
 public:
  BlockCursor(const TypeNode& n, const char* base, int count)
      : n_(n), base_(base), ext_(n.ub - n.lb) {
    if (n.dense()) {
      dense_len_ = static_cast<std::size_t>(ext_) * static_cast<std::size_t>(count);
      count_ = 1;
    } else {
      count_ = count;
    }
    load();
  }

  [[nodiscard]] const char* ptr() const noexcept { return ptr_; }
  [[nodiscard]] std::size_t left() const noexcept { return left_; }

  /// Consume `k` <= left() bytes of the current piece; moves to the next
  /// piece when it is used up.
  void advance(std::size_t k) noexcept {
    ptr_ += k;
    left_ -= k;
    if (left_ == 0) {
      ++blk_;
      load();
    }
  }

 private:
  // Point at the current (element, block) piece, skipping to the next
  // element at the end of a block list.
  void load() noexcept {
    if (dense_len_ > 0) {
      if (elem_ == 0 && blk_ == 0) {
        ptr_ = base_ + n_.lb;
        left_ = dense_len_;
      } else {
        left_ = 0;
      }
      return;
    }
    while (elem_ < count_) {
      if (blk_ < n_.blocks.size()) {
        const TypeBlock& b = n_.blocks[blk_];
        ptr_ = base_ + b.disp + static_cast<std::ptrdiff_t>(elem_) * ext_;
        left_ = b.len;
        return;
      }
      blk_ = 0;
      ++elem_;
    }
    left_ = 0;
  }

  const TypeNode& n_;
  const char* base_;
  std::ptrdiff_t ext_;
  std::size_t dense_len_ = 0;
  int count_ = 0;
  int elem_ = 0;
  std::size_t blk_ = 0;
  const char* ptr_ = nullptr;
  std::size_t left_ = 0;
};

}  // namespace

std::size_t copy_typed_bytes(const void* src, int scount,
                             const Datatype& stype, void* dst, int rcount,
                             const Datatype& rtype, std::size_t nbytes) {
  std::size_t left = std::min(
      {nbytes, stype.pack_size(scount), rtype.pack_size(rcount)});
  const std::size_t total = left;
  if (left == 0) return 0;
  BlockCursor in(stype.node(), static_cast<const char*>(src), scount);
  BlockCursor out(rtype.node(), static_cast<const char*>(dst), rcount);
  while (left > 0) {
    const std::size_t take = std::min({left, in.left(), out.left()});
    std::memcpy(const_cast<char*>(out.ptr()), in.ptr(), take);
    in.advance(take);
    out.advance(take);
    left -= take;
  }
  return total;
}

void TypeBuilder::append(const void* addr, int count, const Datatype& t) {
  MPL_REQUIRE(count >= 0, "TypeBuilder::append: negative count");
  // Absolute displacement; flatten merges into the builder's list directly.
  t.flatten(reinterpret_cast<std::ptrdiff_t>(addr), count, blocks_);
  size_ += t.pack_size(count);
}

void TypeBuilder::append_bytes(const void* addr, std::size_t nbytes) {
  if (nbytes == 0) return;
  detail::push_merged(blocks_,
                      TypeBlock{reinterpret_cast<std::ptrdiff_t>(addr), nbytes});
  size_ += nbytes;
}

Datatype TypeBuilder::build() {
  auto [lo, hi] = detail::footprint(blocks_);
  Datatype t(detail::make_node(std::move(blocks_), lo, hi, /*absolute=*/true));
  blocks_.clear();
  size_ = 0;
  return t;
}

// -- TypeArena ------------------------------------------------------------------

// The type under construction, as push_merged's output: the arena slice
// from `open_` to `used_`, bounded by the counted capacity.
struct TypeArena::OpenBlocks {
  TypeArena& a;
  [[nodiscard]] bool empty() const noexcept { return a.used_ == a.open_; }
  TypeBlock& back() noexcept { return a.blocks_[a.used_ - 1]; }
  void push_back(TypeBlock b) {
    MPL_REQUIRE(a.used_ < a.block_cap_,
                "TypeArena: more blocks appended than were counted");
    a.blocks_[a.used_++] = b;
  }
};

TypeArena::TypeArena(std::size_t types, std::size_t blocks,
                     std::size_t extra)
    : types_(types), block_cap_(blocks) {
  constexpr std::size_t kAlign = alignof(std::max_align_t);
  auto round_up = [](std::size_t n) {
    return (n + kAlign - 1) / kAlign * kAlign;
  };
  const std::size_t node_bytes = round_up(types * sizeof(TypeNode));
  const std::size_t block_bytes = round_up(blocks * sizeof(TypeBlock));
  // Nodes and blocks are written before they are read; only the caller
  // storage is promised zeroed.
  mem_ = std::make_shared_for_overwrite<std::max_align_t[]>(
      (node_bytes + block_bytes + round_up(extra)) / kAlign);
  std::byte* base = reinterpret_cast<std::byte*>(mem_.get());
  nodes_ = reinterpret_cast<TypeNode*>(base);
  blocks_ = reinterpret_cast<TypeBlock*>(base + node_bytes);
  extra_ = base + node_bytes + block_bytes;
  std::memset(extra_, 0, extra);
}

std::size_t TypeArena::block_bound(int count, const Datatype& t) {
  if (count <= 0) return 0;
  const TypeNode& n = t.node();
  return n.dense() ? 1
                   : n.blocks.size() * static_cast<std::size_t>(count);
}

void TypeArena::append(const void* addr, int count, const Datatype& t) {
  MPL_REQUIRE(count >= 0, "TypeArena::append: negative count");
  OpenBlocks out{*this};
  detail::flatten_into(t.node(), reinterpret_cast<std::ptrdiff_t>(addr), count,
                       out);
}

void TypeArena::append_bytes(const void* addr, std::size_t nbytes) {
  OpenBlocks out{*this};
  detail::push_merged(
      out, TypeBlock{reinterpret_cast<std::ptrdiff_t>(addr), nbytes});
}

Datatype TypeArena::build() {
  MPL_REQUIRE(next_type_ < types_,
              "TypeArena: more types built than were counted");
  const std::span<const TypeBlock> blocks(blocks_ + open_, used_ - open_);
  TypeNode* n = ::new (static_cast<void*>(nodes_ + next_type_++)) TypeNode;
  n->blocks = blocks;
  for (const TypeBlock& b : blocks) n->size += b.len;
  std::tie(n->lb, n->ub) = detail::footprint(blocks);
  n->absolute = true;
  open_ = used_;
  return Datatype(std::shared_ptr<const TypeNode>(mem_, n));
}

}  // namespace mpl
