// Virtual process topologies: Cartesian meshes/tori and distributed graphs.
//
// CartComm mirrors MPI_Cart_create (row-major rank order, per-dimension
// periodicity); DistGraphComm mirrors MPI_Dist_graph_create_adjacent (each
// process supplies its own source and target adjacency lists). Both wrap a
// duplicated communicator, so topology traffic is isolated from the parent.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "mpl/comm.hpp"

namespace mpl {

/// Pure coordinate arithmetic of a d-dimensional mesh/torus (row-major).
class CartGrid {
 public:
  CartGrid() = default;
  CartGrid(std::span<const int> dims, std::span<const int> periods);

  [[nodiscard]] int ndims() const noexcept { return static_cast<int>(dims_.size()); }
  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] std::span<const int> dims() const noexcept { return dims_; }
  [[nodiscard]] std::span<const int> periods() const noexcept { return periods_; }
  [[nodiscard]] bool periodic(int dim) const { return periods_[static_cast<std::size_t>(dim)] != 0; }

  /// Row-major rank of a coordinate vector (must be in range).
  [[nodiscard]] int rank_of(std::span<const int> coords) const;

  /// Coordinates of a rank.
  void coords_of(int rank, std::span<int> coords) const;
  [[nodiscard]] std::vector<int> coords_of(int rank) const;

  /// Rank at `coords + sign * offset`, wrapping periodic dimensions;
  /// PROC_NULL when a non-periodic dimension falls off the mesh.
  [[nodiscard]] int rank_at_offset(std::span<const int> coords,
                                   std::span<const int> offset,
                                   int sign = 1) const;

 private:
  std::vector<int> dims_;
  std::vector<int> periods_;
  int size_ = 0;
};

/// Communicator with Cartesian topology information attached.
class CartComm {
 public:
  CartComm() = default;

  [[nodiscard]] const Comm& comm() const noexcept { return comm_; }
  [[nodiscard]] const CartGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] int rank() const noexcept { return comm_.rank(); }
  [[nodiscard]] int size() const noexcept { return comm_.size(); }
  [[nodiscard]] int ndims() const noexcept { return grid_.ndims(); }
  [[nodiscard]] std::span<const int> dims() const noexcept { return grid_.dims(); }

  /// Coordinates of the calling process.
  [[nodiscard]] std::span<const int> coords() const noexcept { return my_coords_; }

  /// Rank of the process at relative offset `rel` from this process
  /// (PROC_NULL when the offset leaves a non-periodic mesh).
  [[nodiscard]] int relative_rank(std::span<const int> rel) const;

  /// (source, destination) pair for a relative offset: destination is the
  /// process at +rel, source the process whose +rel is this process.
  [[nodiscard]] std::pair<int, int> relative_shift(std::span<const int> rel) const;

 private:
  friend CartComm cart_create(const Comm&, std::span<const int>,
                              std::span<const int>, bool);
  friend CartComm cart_sub(const CartComm&, std::span<const int>);
  CartComm(Comm comm, CartGrid grid);

  Comm comm_;
  CartGrid grid_;
  std::vector<int> my_coords_;
};

/// Create a Cartesian communicator over all processes of `comm`
/// (prod(dims) must equal comm.size()). `reorder` is accepted for interface
/// parity; the identity mapping is used (permitted by MPI semantics).
CartComm cart_create(const Comm& comm, std::span<const int> dims,
                     std::span<const int> periods, bool reorder = false);

/// Balanced factorization of `nnodes` into `ndims` dimension sizes
/// (MPI_Dims_create analogue; most-balanced, non-increasing).
std::vector<int> dims_create(int nnodes, int ndims);

/// MPI_Cart_sub analogue: partition a Cartesian communicator into
/// lower-dimensional sub-grids. Dimension k is kept when remain[k] is
/// non-zero; processes sharing their coordinates in all dropped
/// dimensions form one sub-communicator, ranked in row-major order of the
/// kept coordinates. Collective.
CartComm cart_sub(const CartComm& cart, std::span<const int> remain);

/// Communicator with distributed-graph topology (adjacent specification).
class DistGraphComm {
 public:
  DistGraphComm() = default;

  [[nodiscard]] const Comm& comm() const noexcept { return comm_; }
  [[nodiscard]] int rank() const noexcept { return comm_.rank(); }
  [[nodiscard]] int size() const noexcept { return comm_.size(); }

  [[nodiscard]] std::span<const int> sources() const noexcept { return sources_; }
  [[nodiscard]] std::span<const int> targets() const noexcept { return targets_; }
  [[nodiscard]] std::span<const int> source_weights() const noexcept {
    return source_weights_;
  }
  [[nodiscard]] std::span<const int> target_weights() const noexcept {
    return target_weights_;
  }
  [[nodiscard]] int indegree() const noexcept { return static_cast<int>(sources_.size()); }
  [[nodiscard]] int outdegree() const noexcept { return static_cast<int>(targets_.size()); }

 private:
  friend DistGraphComm dist_graph_create_adjacent(
      const Comm&, std::span<const int>, std::span<const int>,
      std::span<const int>, std::span<const int>, bool);

  Comm comm_;
  std::vector<int> sources_, targets_;
  std::vector<int> source_weights_, target_weights_;
};

/// Each process supplies its own adjacency (ranks it receives from /
/// sends to, with optional weights; pass empty spans for unweighted).
DistGraphComm dist_graph_create_adjacent(const Comm& comm,
                                         std::span<const int> sources,
                                         std::span<const int> source_weights,
                                         std::span<const int> targets,
                                         std::span<const int> target_weights,
                                         bool reorder = false);

}  // namespace mpl
