#include "mpl/topology.hpp"

#include <algorithm>

#include "mpl/error.hpp"

namespace mpl {

namespace {
// Mathematical modulo (result in [0, m) for m > 0).
int pos_mod(int x, int m) {
  const int r = x % m;
  return r < 0 ? r + m : r;
}
}  // namespace

CartGrid::CartGrid(std::span<const int> dims, std::span<const int> periods)
    : dims_(dims.begin(), dims.end()) {
  MPL_REQUIRE(!dims_.empty(), "CartGrid: need at least one dimension");
  MPL_REQUIRE(periods.empty() || periods.size() == dims.size(),
              "CartGrid: periods must be empty or match dims");
  periods_.assign(dims.size(), 1);  // fully periodic by default (torus)
  if (!periods.empty()) periods_.assign(periods.begin(), periods.end());
  size_ = 1;
  for (int d : dims_) {
    MPL_REQUIRE(d >= 1, "CartGrid: dimension sizes must be positive");
    size_ *= d;
  }
}

int CartGrid::rank_of(std::span<const int> coords) const {
  MPL_REQUIRE(coords.size() == dims_.size(), "rank_of: wrong coordinate arity");
  int r = 0;
  for (std::size_t k = 0; k < dims_.size(); ++k) {
    MPL_REQUIRE(coords[k] >= 0 && coords[k] < dims_[k],
                "rank_of: coordinate out of range");
    r = r * dims_[k] + coords[k];
  }
  return r;
}

void CartGrid::coords_of(int rank, std::span<int> coords) const {
  MPL_REQUIRE(rank >= 0 && rank < size_, "coords_of: rank out of range");
  MPL_REQUIRE(coords.size() == dims_.size(), "coords_of: wrong arity");
  for (std::size_t k = dims_.size(); k-- > 0;) {
    coords[k] = rank % dims_[k];
    rank /= dims_[k];
  }
}

std::vector<int> CartGrid::coords_of(int rank) const {
  std::vector<int> c(dims_.size());
  coords_of(rank, c);
  return c;
}

int CartGrid::rank_at_offset(std::span<const int> coords,
                             std::span<const int> offset, int sign) const {
  MPL_REQUIRE(offset.size() == dims_.size(), "rank_at_offset: wrong arity");
  int r = 0;
  for (std::size_t k = 0; k < dims_.size(); ++k) {
    int c = coords[k] + sign * offset[k];
    if (periods_[k] != 0) {
      c = pos_mod(c, dims_[k]);
    } else if (c < 0 || c >= dims_[k]) {
      return PROC_NULL;
    }
    r = r * dims_[k] + c;
  }
  return r;
}

CartComm::CartComm(Comm comm, CartGrid grid)
    : comm_(std::move(comm)), grid_(std::move(grid)) {
  my_coords_ = grid_.coords_of(comm_.rank());
}

int CartComm::relative_rank(std::span<const int> rel) const {
  return grid_.rank_at_offset(my_coords_, rel);
}

std::pair<int, int> CartComm::relative_shift(std::span<const int> rel) const {
  return {grid_.rank_at_offset(my_coords_, rel, -1),
          grid_.rank_at_offset(my_coords_, rel)};
}

CartComm cart_create(const Comm& comm, std::span<const int> dims,
                     std::span<const int> periods, bool reorder) {
  CartGrid grid(dims, periods);
  MPL_REQUIRE(grid.size() == comm.size(),
              "cart_create: prod(dims) must equal communicator size");
  (void)reorder;  // identity mapping (a valid choice under MPI semantics)
  return CartComm(comm.dup(), std::move(grid));
}

std::vector<int> dims_create(int nnodes, int ndims) {
  MPL_REQUIRE(nnodes >= 1 && ndims >= 1, "dims_create: bad arguments");
  std::vector<int> dims(static_cast<std::size_t>(ndims), 1);
  // Greedy: repeatedly assign the largest remaining prime factor to the
  // currently smallest dimension, then sort non-increasing (MPI convention).
  int n = nnodes;
  std::vector<int> factors;
  for (int f = 2; f * f <= n; ++f) {
    while (n % f == 0) {
      factors.push_back(f);
      n /= f;
    }
  }
  if (n > 1) factors.push_back(n);
  std::sort(factors.rbegin(), factors.rend());
  for (int f : factors) {
    auto it = std::min_element(dims.begin(), dims.end());
    *it *= f;
  }
  std::sort(dims.rbegin(), dims.rend());
  return dims;
}

CartComm cart_sub(const CartComm& cart, std::span<const int> remain) {
  const CartGrid& g = cart.grid();
  MPL_REQUIRE(remain.size() == static_cast<std::size_t>(g.ndims()),
              "cart_sub: remain must have one entry per dimension");
  std::vector<int> kept_dims, kept_periods;
  for (int k = 0; k < g.ndims(); ++k) {
    if (remain[static_cast<std::size_t>(k)] != 0) {
      kept_dims.push_back(g.dims()[static_cast<std::size_t>(k)]);
      kept_periods.push_back(g.periods()[static_cast<std::size_t>(k)]);
    }
  }
  MPL_REQUIRE(!kept_dims.empty(), "cart_sub: must keep at least one dimension");

  // Color: the dropped coordinates; key: row-major rank of the kept ones.
  int color = 0, key = 0;
  for (int k = 0; k < g.ndims(); ++k) {
    const int c = cart.coords()[static_cast<std::size_t>(k)];
    if (remain[static_cast<std::size_t>(k)] != 0) {
      key = key * g.dims()[static_cast<std::size_t>(k)] + c;
    } else {
      color = color * g.dims()[static_cast<std::size_t>(k)] + c;
    }
  }
  Comm sub = cart.comm().split(color, key);
  return CartComm(std::move(sub), CartGrid(kept_dims, kept_periods));
}

DistGraphComm dist_graph_create_adjacent(const Comm& comm,
                                         std::span<const int> sources,
                                         std::span<const int> source_weights,
                                         std::span<const int> targets,
                                         std::span<const int> target_weights,
                                         bool reorder) {
  MPL_REQUIRE(source_weights.empty() || source_weights.size() == sources.size(),
              "dist_graph_create_adjacent: source weight arity");
  MPL_REQUIRE(target_weights.empty() || target_weights.size() == targets.size(),
              "dist_graph_create_adjacent: target weight arity");
  for (int s : sources)
    MPL_REQUIRE(s >= 0 && s < comm.size(), "dist_graph: source out of range");
  for (int t : targets)
    MPL_REQUIRE(t >= 0 && t < comm.size(), "dist_graph: target out of range");
  (void)reorder;

  DistGraphComm g;
  g.comm_ = comm.dup();
  g.sources_.assign(sources.begin(), sources.end());
  g.targets_.assign(targets.begin(), targets.end());
  g.source_weights_.assign(source_weights.begin(), source_weights.end());
  g.target_weights_.assign(target_weights.begin(), target_weights.end());
  return g;
}

}  // namespace mpl
