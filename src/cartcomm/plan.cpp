// CompiledPlan binding, cache keys, and the process-global sharded plan
// cache (see plan.hpp for the design overview).
#include "cartcomm/plan.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "mpl/annotations.hpp"
#include "mpl/checked.hpp"
#include "mpl/error.hpp"
#include "telemetry/plan_cache.hpp"

namespace cartcomm {

// -- binding -----------------------------------------------------------------

Schedule CompiledPlan::bind(const CartNeighborComm& cc,
                            std::span<const SendBlock> sends,
                            std::span<const RecvBlock> recvs) const {
  MPL_REQUIRE(folds_.empty(),
              "CompiledPlan::bind: reducing plan bound without an op");
  return bind_impl(cc, sends, recvs, nullptr);
}

Schedule CompiledPlan::bind(const CartNeighborComm& cc,
                            std::span<const SendBlock> sends,
                            std::span<const RecvBlock> recvs,
                            const mpl::ReduceOp& op) const {
  MPL_REQUIRE(op.valid(), "CompiledPlan::bind: invalid reduce op");
  return bind_impl(cc, sends, recvs, &op);
}

Schedule CompiledPlan::bind_impl(const CartNeighborComm& cc,
                                 std::span<const SendBlock> sends,
                                 std::span<const RecvBlock> recvs,
                                 const mpl::ReduceOp* op) const {
  const mpl::CartGrid& grid = cc.grid();
  const std::span<const int> R = cc.coords();

  // Counting pass: an upper bound on every type's block list (merging
  // with the previous block only shortens it) and the round offsets, so
  // one arena holds every round and copy type, the temp pool and the
  // offsets.
  auto block_bound = [&](const PlanPlacement& p) -> std::size_t {
    const std::size_t ui = static_cast<std::size_t>(p.index);
    switch (p.kind) {
      case PlanPlacement::Kind::send_block:
        return mpl::TypeArena::block_bound(sends[ui].count, sends[ui].type);
      case PlanPlacement::Kind::recv_block:
        return mpl::TypeArena::block_bound(recvs[ui].count, recvs[ui].type);
      case PlanPlacement::Kind::temp:
        return 1;
    }
    return 0;
  };
  std::size_t blocks = 0;
  std::size_t offset_ints = 0;
  for (const PlanRound& r : rounds_) {
    for (const PlanPlacement& p : r.send_items) blocks += block_bound(p);
    for (const PlanPlacement& p : r.recv_items) blocks += block_bound(p);
    offset_ints += r.offset.size();
  }
  for (const PlanCopy& c : copies_) {
    blocks += block_bound(c.src) + block_bound(c.dst);
  }
  const std::size_t temp_span =
      (temp_bytes_ + alignof(int) - 1) / alignof(int) * alignof(int);
  mpl::TypeArena arena(2 * (rounds_.size() + copies_.size()), blocks,
                       temp_span + offset_ints * sizeof(int));
  std::byte* const temp = arena.extra();
  int* offsets = reinterpret_cast<int*>(temp + temp_span);

  ScheduleBuilder builder;
  builder.set_grid(grid_);
  builder.set_storage(arena.owner(), temp_bytes_);
  builder.reserve(rounds_.size(), phase_rounds_.size(), copies_.size(),
                  op != nullptr ? folds_.size() : 0);

  auto append = [&](const PlanPlacement& p) {
    const std::size_t ui = static_cast<std::size_t>(p.index);
    switch (p.kind) {
      case PlanPlacement::Kind::send_block:
        arena.append(sends[ui].addr, sends[ui].count, sends[ui].type);
        break;
      case PlanPlacement::Kind::recv_block:
        arena.append(recvs[ui].addr, recvs[ui].count, recvs[ui].type);
        break;
      case PlanPlacement::Kind::temp:
        arena.append_bytes(temp + p.offset, p.bytes);
        break;
    }
  };

  std::size_t ri = 0;
  for (const int phase_count : phase_rounds_) {
    for (int x = 0; x < phase_count; ++x, ++ri) {
      const PlanRound& r = rounds_[ri];
      for (const PlanPlacement& p : r.send_items) append(p);
      mpl::Datatype sendtype = arena.build();
      for (const PlanPlacement& p : r.recv_items) append(p);
      mpl::Datatype recvtype = arena.build();
      const std::span<const int> offset(offsets, r.offset.size());
      offsets = std::copy(r.offset.begin(), r.offset.end(), offsets);
      const int sendrank = grid.rank_at_offset(R, r.offset);
      const int recvrank = grid.rank_at_offset(R, r.offset, -1);
      // rank_at_offset yields PROC_NULL exactly when the offset leaves a
      // non-periodic mesh, so a null partner here is a provable boundary.
      builder.add_round({sendrank, recvrank, std::move(sendtype),
                         std::move(recvtype), offset,
                         sendrank == mpl::PROC_NULL,
                         recvrank == mpl::PROC_NULL, r.reduce},
                        r.blocks_sent);
    }
    builder.end_phase();
  }
  for (const PlanCopy& c : copies_) {
    append(c.src);
    mpl::Datatype src = arena.build();
    append(c.dst);
    builder.add_copy(std::move(src), arena.build());
  }
  if (op != nullptr) {
    // Resolve the fold program against the same buffers. The reduce entry
    // points guarantee dense block layouts whose byte size is a multiple
    // of the op element, so a placement resolves to its base address.
    auto addr_of = [&](const PlanPlacement& p) -> void* {
      switch (p.kind) {
        case PlanPlacement::Kind::send_block:
          return const_cast<void*>(sends[static_cast<std::size_t>(p.index)].addr);
        case PlanPlacement::Kind::recv_block:
          return recvs[static_cast<std::size_t>(p.index)].addr;
        case PlanPlacement::Kind::temp:
          return temp + p.offset;
      }
      return nullptr;
    };
    builder.set_op(*op);
    for (const PlanFold& f : folds_) {
      ScheduleFold sf;
      sf.dst = addr_of(f.dst);
      sf.src = f.identity ? nullptr : addr_of(f.src);
      sf.count = f.count;
      sf.phase = f.phase;
      sf.init = f.init;
      builder.add_fold(sf);
    }
  }
  return builder.finish();
}

// -- cache keys --------------------------------------------------------------

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Structural digest of a block descriptor: element count plus the
/// datatype's flattened shape (lb, extent, and every (disp, len) block).
/// Addresses are not part of it.
std::int64_t type_digest(const mpl::Datatype& type, int count) {
  std::uint64_t h = kFnvOffset;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= kFnvPrime;
  };
  mix(static_cast<std::uint64_t>(count));
  mix(static_cast<std::uint64_t>(type.lb()));
  mix(static_cast<std::uint64_t>(type.extent()));
  for (const mpl::TypeBlock& b : type.blocks()) {
    mix(static_cast<std::uint64_t>(b.disp));
    mix(static_cast<std::uint64_t>(b.len));
  }
  return static_cast<std::int64_t>(h);
}

/// type_digest that reuses its last result: the blocks of a call usually
/// share one datatype and count, so a t-block key digests it once.
class RepeatDigest {
 public:
  std::int64_t operator()(const mpl::Datatype& type, int count) {
    if (type_ == nullptr || !(*type_ == type) || count_ != count) {
      type_ = &type;
      count_ = count;
      digest_ = type_digest(type, count);
    }
    return digest_;
  }

 private:
  const mpl::Datatype* type_ = nullptr;
  int count_ = 0;
  std::int64_t digest_ = 0;
};

/// Words append_common adds.
std::size_t common_words(const CartNeighborComm& cc) {
  const Neighborhood& nb = cc.neighborhood();
  const auto d = static_cast<std::size_t>(nb.ndims());
  const auto t = static_cast<std::size_t>(nb.count());
  return 2 + 4 * d + t * d;
}

/// Everything both collectives share: topology, position class, and the
/// neighborhood itself.
void append_common(std::vector<std::int64_t>& w, const CartNeighborComm& cc) {
  const mpl::CartGrid& g = cc.grid();
  const Neighborhood& nb = cc.neighborhood();
  const int d = nb.ndims();
  const int t = nb.count();
  w.push_back(d);
  for (int j = 0; j < d; ++j) {
    w.push_back(g.dims()[static_cast<std::size_t>(j)]);
    w.push_back(g.periodic(j) ? 1 : 0);
  }
  const std::vector<int> sig = cc.boundary_signature();
  w.insert(w.end(), sig.begin(), sig.end());
  w.push_back(t);
  w.insert(w.end(), nb.flat().begin(), nb.flat().end());
}

PlanKey seal(std::vector<std::int64_t> w) {
  PlanKey key;
  key.words = std::move(w);
  // FNV over four interleaved lanes: keys run to several hundred words
  // and a single lane is one serial multiply chain.
  std::uint64_t h[4] = {kFnvOffset, kFnvOffset + 1, kFnvOffset + 2,
                        kFnvOffset + 3};
  const std::vector<std::int64_t>& v = key.words;
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::uint64_t& lane = h[i % 4];
    lane ^= static_cast<std::uint64_t>(v[i]);
    lane *= kFnvPrime;
  }
  std::uint64_t all = kFnvOffset;
  for (const std::uint64_t x : h) {
    all ^= x;
    all *= kFnvPrime;
  }
  key.hash = static_cast<std::size_t>(all);
  return key;
}

}  // namespace

PlanKey make_alltoall_key(const CartNeighborComm& cc,
                          std::span<const SendBlock> sends,
                          std::span<const RecvBlock> recvs, bool combining) {
  std::vector<std::int64_t> w;
  w.reserve(common_words(cc) + 2 + 3 * sends.size());
  w.push_back(1);  // collective kind: alltoall
  w.push_back(combining ? 1 : 0);
  append_common(w, cc);
  RepeatDigest send_digest, recv_digest;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    w.push_back(static_cast<std::int64_t>(sends[i].bytes()));
    w.push_back(send_digest(sends[i].type, sends[i].count));
    w.push_back(recv_digest(recvs[i].type, recvs[i].count));
  }
  return seal(std::move(w));
}

PlanKey make_allgather_key(const CartNeighborComm& cc, const SendBlock& send,
                           std::span<const RecvBlock> recvs, DimOrder order,
                           bool combining) {
  std::vector<std::int64_t> w;
  w.reserve(common_words(cc) + 5 + recvs.size());
  w.push_back(2);  // collective kind: allgather
  w.push_back(combining ? 1 : 0);
  append_common(w, cc);
  w.push_back(static_cast<std::int64_t>(order));
  w.push_back(static_cast<std::int64_t>(send.bytes()));
  w.push_back(type_digest(send.type, send.count));
  RepeatDigest recv_digest;
  for (const RecvBlock& r : recvs) w.push_back(recv_digest(r.type, r.count));
  return seal(std::move(w));
}

PlanKey make_reduce_key(const CartNeighborComm& cc, ReduceVariant variant,
                        bool combining, DimOrder order, const SendBlock& send,
                        const mpl::ReduceOp& op) {
  std::vector<std::int64_t> w;
  w.reserve(common_words(cc) + 8);
  w.push_back(4);  // collective kind: reduction family
  append_common(w, cc);
  w.push_back(static_cast<std::int64_t>(variant));
  w.push_back(combining ? 1 : 0);
  w.push_back(static_cast<std::int64_t>(order));
  w.push_back(static_cast<std::int64_t>(send.bytes()));
  w.push_back(type_digest(send.type, send.count));
  w.push_back(static_cast<std::int64_t>(op.digest()));
  w.push_back(static_cast<std::int64_t>(op.elem_size()));
  return seal(std::move(w));
}

// -- the cache ---------------------------------------------------------------

namespace {

struct CacheEntry {
  std::shared_ptr<const CompiledPlan> plan;
  std::uint64_t tick = 0;  // last-touch stamp for approximate LRU
};

struct KeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept { return k.hash; }
};

struct PlanCacheShard {
  mpl::detail::PlanCacheMutex mtx_;
  std::unordered_map<PlanKey, CacheEntry, KeyHash> map_ MPL_GUARDED_BY(mtx_);
};

constexpr std::size_t kShards = 8;

// Function-local static: init-order safe (first lookup constructs it) and
// never destroyed order-sensitively before last use within main().
std::array<PlanCacheShard, kShards>& shards() {
  static std::array<PlanCacheShard, kShards> s;
  return s;
}

PlanCacheShard& shard_for(std::size_t hash) { return shards()[hash % kShards]; }

std::atomic<std::uint64_t>& tick_source() {
  static std::atomic<std::uint64_t> t{0};
  return t;
}

bool env_flag(const char* name, bool fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return fallback;
  const std::string v(e);
  return !(v == "0" || v == "false" || v == "off" || v == "no");
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(e, &end, 10);
  if (end == e) return fallback;
  return static_cast<std::size_t>(v);
}

// Environment is read once at first use; the programmatic setters below
// overwrite these atomics, so they always win over the environment.
struct CacheConfig {
  std::atomic<bool> enabled;
  std::atomic<std::size_t> cap;

  CacheConfig()
      : enabled(env_flag("MPL_PLAN_CACHE", true)),
        cap(env_size("MPL_PLAN_CACHE_CAP", 256)) {}
};

CacheConfig& config() {
  static CacheConfig c;
  return c;
}

std::size_t per_shard_cap() {
  const std::size_t cap = config().cap.load(std::memory_order_relaxed);
  if (cap == 0) return 0;  // unbounded
  return (cap + kShards - 1) / kShards;
}

}  // namespace

bool plan_cache_enabled() {
  return config().enabled.load(std::memory_order_relaxed);
}

void plan_cache_set_enabled(bool on) {
  config().enabled.store(on, std::memory_order_relaxed);
}

std::size_t plan_cache_cap() {
  return config().cap.load(std::memory_order_relaxed);
}

void plan_cache_set_cap(std::size_t cap) {
  config().cap.store(cap, std::memory_order_relaxed);
}

std::shared_ptr<const CompiledPlan> plan_cache_lookup(const PlanKey& key) {
  if (!plan_cache_enabled()) return nullptr;  // bypass: not counted
  PlanCacheShard& sh = shard_for(key.hash);
  mpl::detail::CheckedLock lock(sh.mtx_);
  auto it = sh.map_.find(key);
  if (it == sh.map_.end()) {
    telemetry::on_plan_cache_miss();
    return nullptr;
  }
  it->second.tick =
      tick_source().fetch_add(1, std::memory_order_relaxed) + 1;
  telemetry::on_plan_cache_hit();
  return it->second.plan;
}

std::shared_ptr<const CompiledPlan> plan_cache_resolve(
    const PlanKey& key, const std::function<CompiledPlan()>& compile) {
  if (!plan_cache_enabled()) {
    return std::make_shared<const CompiledPlan>(compile());  // not counted
  }
  PlanCacheShard& sh = shard_for(key.hash);
  mpl::detail::CheckedLock lock(sh.mtx_);
  const std::uint64_t tick =
      tick_source().fetch_add(1, std::memory_order_relaxed) + 1;
  auto [it, inserted] = sh.map_.try_emplace(key);
  it->second.tick = tick;
  if (!inserted) {
    telemetry::on_plan_cache_hit();
    return it->second.plan;
  }
  telemetry::on_plan_cache_miss();
  // Single flight: compile under the shard lock, so a concurrent misser of
  // this key blocks above and then hits. Compile is pure and takes no
  // lock, which keeps plan_cache a leaf level.
  try {
    it->second.plan = std::make_shared<const CompiledPlan>(compile());
  } catch (...) {
    sh.map_.erase(it);
    throw;
  }
  std::shared_ptr<const CompiledPlan> sp = it->second.plan;
  telemetry::on_plan_cache_insert();
  const std::size_t cap = per_shard_cap();
  while (cap != 0 && sh.map_.size() > cap) {
    auto victim = sh.map_.end();
    for (auto e = sh.map_.begin(); e != sh.map_.end(); ++e) {
      if (e == it) continue;  // never evict the plan being published
      if (victim == sh.map_.end() || e->second.tick < victim->second.tick) {
        victim = e;
      }
    }
    if (victim == sh.map_.end()) break;
    sh.map_.erase(victim);
    telemetry::on_plan_cache_evict();
  }
  return sp;
}

std::size_t plan_cache_size() {
  std::size_t n = 0;
  for (PlanCacheShard& sh : shards()) {
    mpl::detail::CheckedLock lock(sh.mtx_);
    n += sh.map_.size();
  }
  return n;
}

void plan_cache_clear() {
  std::uint64_t dropped = 0;
  for (PlanCacheShard& sh : shards()) {
    mpl::detail::CheckedLock lock(sh.mtx_);
    dropped += sh.map_.size();
    sh.map_.clear();
  }
  telemetry::on_plan_cache_drop(dropped);
}

}  // namespace cartcomm
