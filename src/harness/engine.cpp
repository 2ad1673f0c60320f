#include "harness/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_set>

namespace paxsim::harness {
namespace {

/// Pool key: the topology (its fingerprint covers every level's scaled
/// capacity), the other capacity-like fields RunOptions::machine_scale
/// varies, and whether the machine may take the fast path.  Machines with
/// equal keys are interchangeable for pooling.  Profiled and plain runs
/// share a pool: the profiler attaches to a leased machine and detaches
/// before the lease returns it.
std::string params_pool_key(const sim::MachineParams& p) {
  std::string s;
  s.reserve(64);
  const auto app = [&s](std::uint64_t v) {
    s += std::to_string(v);
    s += ':';
  };
  app(p.trace_cache_uops);
  app(p.itlb_entries);
  app(p.dtlb_entries);
  app(static_cast<std::uint64_t>(p.prefetch_streams));
  app(p.fast_path ? 1u : 0u);
  s += p.topology.fingerprint();
  return s;
}

/// The seed a cell of programs @p a and @p b simulates at: @p seed when
/// either program's seed reaches the simulated path, else kDefaultSeed —
/// every seed simulates such a cell identically, so its trials share one.
std::uint64_t simulated_seed(npb::Benchmark a, npb::Benchmark b,
                             std::uint64_t seed) {
  return npb::seed_reaches_simulator(a) || npb::seed_reaches_simulator(b)
             ? seed
             : npb::kDefaultSeed;
}

/// Memo key for kernel profiles: everything run_profiled_serial's outcome
/// depends on, @p seed already passed through simulated_seed.  Verification
/// does not change the profile.  Schedule overrides do not either: the
/// profiling run is single-threaded, and a one-thread team executes
/// serial_for, which has no schedule.
std::string profile_key(npb::Benchmark b, const RunOptions& opt,
                        std::uint64_t seed) {
  std::string s;
  s.reserve(48);
  s += std::to_string(static_cast<int>(b));
  s += '|';
  s += std::to_string(static_cast<int>(opt.cls));
  s += '|';
  s += std::to_string(opt.machine_scale);
  s += '|';
  s += std::to_string(seed);
  s += '|';
  s += std::to_string(opt.grain);
  return s;
}

}  // namespace

// Tripwire for CellKey::from: RunOptions and CellKey must evolve together.
// When a field is added to RunOptions, the build fails here until (a) the
// factory below is audited to either project the field into the key or
// justify its exclusion, and (b) this expected size is updated.  (Guarded to
// the common LP64 layout; other ABIs rely on the audit having happened.)
#if defined(__x86_64__) && defined(__LP64__)
static_assert(sizeof(RunOptions) == 80,
              "RunOptions changed: audit CellKey::from for the new field, "
              "then update this expected size");
#endif

CellKey CellKey::from(Kind kind, npb::Benchmark a, npb::Benchmark b,
                      const StudyConfig& cfg, const RunOptions& opt,
                      std::uint64_t seed) {
  CellKey k;
  k.kind = kind;
  k.a = a;
  k.b = b;
  k.config = config_fingerprint(cfg);
  k.cls = opt.cls;
  k.machine_scale = opt.machine_scale;
  k.seed = seed;  // the per-trial seed: opt.trials/base_seed are plan-level
  k.verify = opt.verify;
  k.grain = opt.grain;
  k.sched_kind = opt.sched_kind;
  k.sched_chunk = opt.sched_chunk;
  if (opt.topology != nullptr) k.machine = opt.topology->fingerprint();
  return k.canonical();
}

CellKey CellKey::canonical() const {
  CellKey k = *this;
  k.seed = simulated_seed(a, b, seed);
  // The runner reads the chunk only under an override, so a chunk next to
  // the kernel-default schedule names the same run as no chunk at all:
  // every front end must mint one key for it.
  if (k.sched_kind < 0) k.sched_chunk = 0;
  return k;
}

std::string config_fingerprint(const StudyConfig& cfg) {
  std::string s(cfg.name);
  s += '|';
  s += std::to_string(static_cast<int>(cfg.arch));
  s += cfg.ht_on ? "|ht|" : "|--|";
  s += std::to_string(cfg.threads);
  s += '/';
  s += std::to_string(cfg.chips);
  // Spell out chip.core.context: the key must not depend on a machine's
  // context numbering.
  for (const sim::LogicalCpu c : cfg.cpus) {
    s += ':';
    s += std::to_string(c.chip);
    s += '.';
    s += std::to_string(c.core);
    s += '.';
    s += std::to_string(c.context);
  }
  return s;
}

namespace {

/// Fixed-width lowercase hex of @p v over @p digits nibbles (MSB first).
void append_hex(std::string& s, std::uint64_t v, int digits) {
  static const char* kHex = "0123456789abcdef";
  for (int d = digits - 1; d >= 0; --d) {
    // paxlint: allow(fold-order) -- MSB-first hex formatting of one scalar, not a sharded reduction; no counter fold happens here
    s += kHex[(v >> (4 * d)) & 0xF];
  }
}

/// Length-prefixed byte field: 8 hex digits of length, ':', the raw bytes.
/// The prefix makes the serialization injective however the strings nest.
void append_bytes(std::string& s, std::string_view bytes) {
  append_hex(s, bytes.size(), 8);
  s += ':';
  s.append(bytes);
}

}  // namespace

std::string cell_fingerprint(const CellKey& k) {
  // Every field is rendered explicitly at a fixed width, in declaration
  // order, so the result is a pure function of the key's VALUES — never of
  // struct padding, enum underlying types or host endianness.  The leading
  // version token makes old stores reject new-format keys (and vice versa)
  // instead of silently aliasing.
  std::string s;
  s.reserve(96 + k.config.size() + k.machine.size());
  s += "cellkey-v";
  s += std::to_string(kCellFingerprintVersion);
  s += ";kind=";
  append_hex(s, static_cast<std::uint64_t>(k.kind), 2);
  s += ";a=";
  append_hex(s, static_cast<std::uint64_t>(k.a), 2);
  s += ";b=";
  append_hex(s, static_cast<std::uint64_t>(k.b), 2);
  s += ";cls=";
  append_hex(s, static_cast<std::uint64_t>(k.cls), 2);
  s += ";scale=";
  std::uint64_t scale_bits = 0;
  static_assert(sizeof(scale_bits) == sizeof(k.machine_scale));
  std::memcpy(&scale_bits, &k.machine_scale, sizeof(scale_bits));
  append_hex(s, scale_bits, 16);  // IEEE-754 bit pattern: exact, total
  s += ";seed=";
  append_hex(s, k.seed, 16);
  s += ";verify=";
  s += k.verify ? '1' : '0';
  s += ";grain=";
  append_hex(s, static_cast<std::uint64_t>(k.grain), 16);
  s += ";skind=";
  // Sign-extended so the -1 kernel-default sentinel stays injective.
  append_hex(s, static_cast<std::uint64_t>(static_cast<std::int64_t>(k.sched_kind)), 16);
  s += ";schunk=";
  append_hex(s, static_cast<std::uint64_t>(k.sched_chunk), 16);
  // v2's check and trace slots: no cell is checked or traced (observers
  // attach to a machine, not to a cell).
  s += ";check=00;trace=00";
  s += ";config=";
  append_bytes(s, k.config);
  s += ";machine=";
  append_bytes(s, k.machine);
  return s;
}

namespace {

/// Reads one field append_hex wrote: @p tag, then @p digits lowercase hex
/// nibbles.  Advances @p s past both on success.
bool take_hex(std::string_view& s, std::string_view tag, int digits,
              std::uint64_t* v) {
  const std::size_t n = tag.size() + static_cast<std::size_t>(digits);
  if (s.size() < n || s.substr(0, tag.size()) != tag) return false;
  std::uint64_t x = 0;
  for (const char c : s.substr(tag.size(), n - tag.size())) {
    int nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nibble = c - 'a' + 10;
    } else {
      return false;
    }
    x = (x << 4) | static_cast<std::uint64_t>(nibble);
  }
  s.remove_prefix(n);
  *v = x;
  return true;
}

/// Reads one field append_bytes wrote, after @p tag.
bool take_bytes(std::string_view& s, std::string_view tag, std::string* out) {
  std::uint64_t n = 0;
  if (!take_hex(s, tag, 8, &n) || s.empty() || s[0] != ':' ||
      s.size() - 1 < n) {
    return false;
  }
  out->assign(s.substr(1, n));
  s.remove_prefix(1 + n);
  return true;
}

}  // namespace

bool parse_cell_fingerprint(std::string_view s, CellKey* out) {
  const std::string version =
      "cellkey-v" + std::to_string(kCellFingerprintVersion);
  if (s.substr(0, version.size()) != version) return false;
  s.remove_prefix(version.size());
  std::uint64_t kind = 0, a = 0, b = 0, cls = 0, scale = 0, seed = 0;
  std::uint64_t verify = 0, grain = 0, skind = 0, schunk = 0, check = 0;
  std::uint64_t trace = 0;
  CellKey k;
  const bool read =
      take_hex(s, ";kind=", 2, &kind) && take_hex(s, ";a=", 2, &a) &&
      take_hex(s, ";b=", 2, &b) && take_hex(s, ";cls=", 2, &cls) &&
      take_hex(s, ";scale=", 16, &scale) && take_hex(s, ";seed=", 16, &seed) &&
      take_hex(s, ";verify=", 1, &verify) &&
      take_hex(s, ";grain=", 16, &grain) &&
      take_hex(s, ";skind=", 16, &skind) &&
      take_hex(s, ";schunk=", 16, &schunk) &&
      take_hex(s, ";check=", 2, &check) && take_hex(s, ";trace=", 2, &trace) &&
      take_bytes(s, ";config=", &k.config) &&
      take_bytes(s, ";machine=", &k.machine) && s.empty();
  // Every value cell_fingerprint can write, and no other.
  const auto last_bench =
      static_cast<std::uint64_t>(npb::Benchmark::kRacyFlag);
  const auto sched = static_cast<std::int64_t>(skind);
  if (!read || kind > static_cast<std::uint64_t>(CellKey::Kind::kPredict) ||
      a > last_bench || b > last_bench ||
      cls > static_cast<std::uint64_t>(npb::ProblemClass::kClassB) ||
      verify > 1 ||
      sched < std::numeric_limits<int>::min() ||
      sched > std::numeric_limits<int>::max() ||
      check != 0 || trace != 0) {
    return false;
  }
  k.kind = static_cast<CellKey::Kind>(kind);
  k.a = static_cast<npb::Benchmark>(a);
  k.b = static_cast<npb::Benchmark>(b);
  k.cls = static_cast<npb::ProblemClass>(cls);
  std::memcpy(&k.machine_scale, &scale, sizeof(scale));
  k.seed = seed;
  k.verify = verify == 1;
  k.grain = static_cast<std::size_t>(grain);
  k.sched_kind = static_cast<int>(sched);
  k.sched_chunk = static_cast<std::size_t>(schunk);
  *out = std::move(k);
  return true;
}

std::string cell_digest(std::string_view fingerprint) {
  // Two independent 64-bit FNV-1a passes (distinct offset bases) → 128 bits
  // rendered as 32 hex characters.  Not cryptographic; collision odds at
  // sweep scale (~10^6 cells) are ~10^-26, and the store additionally
  // verifies the full fingerprint string recorded inside each entry.
  const auto fnv1a = [fingerprint](std::uint64_t h) {
    for (const char c : fingerprint) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    return h;
  };
  std::string s;
  s.reserve(32);
  append_hex(s, fnv1a(0xcbf29ce484222325ull), 16);
  append_hex(s, fnv1a(0x6c62272e07bb0142ull), 16);
  return s;
}

std::size_t CellKeyHash::operator()(const CellKey& k) const noexcept {
  std::size_t h = std::hash<std::string>{}(k.config);
  const auto mix = [&h](std::uint64_t v) {
    h ^= static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
  };
  mix(static_cast<std::uint64_t>(k.kind));
  mix(static_cast<std::uint64_t>(k.a));
  mix(static_cast<std::uint64_t>(k.b));
  mix(static_cast<std::uint64_t>(k.cls));
  std::uint64_t scale_bits = 0;
  static_assert(sizeof(scale_bits) == sizeof(k.machine_scale));
  std::memcpy(&scale_bits, &k.machine_scale, sizeof(scale_bits));
  mix(scale_bits);
  mix(k.seed);
  mix(k.verify ? 1u : 0u);
  mix(static_cast<std::uint64_t>(k.grain));
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(k.sched_kind)));
  mix(static_cast<std::uint64_t>(k.sched_chunk));
  mix(static_cast<std::uint64_t>(std::hash<std::string>{}(k.machine)));
  return h;
}

// ---------------------------------------------------------------------------
// MachinePool
// ---------------------------------------------------------------------------

MachinePool::Lease::~Lease() {
  if (pool_ != nullptr && machine_ != nullptr) {
    pool_->release(std::move(machine_));
  }
}

MachinePool::Lease MachinePool::acquire() {
  std::unique_ptr<sim::Machine> m;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++acquired_;
    if (!free_.empty()) {
      m = std::move(free_.back());
      free_.pop_back();
    } else {
      ++created_;
    }
  }
  if (m == nullptr) m = std::make_unique<sim::Machine>(params_);
  return Lease(this, std::move(m));
}

void MachinePool::release(std::unique_ptr<sim::Machine> m) {
  // Return the machine cold so the next lease starts from the same state a
  // fresh construction would (the runners also reset on entry, but a cold
  // pool keeps leaked state impossible by construction).
  m->reset();
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(m));
}

std::uint64_t MachinePool::created() const {
  std::lock_guard<std::mutex> lock(mu_);
  return created_;
}

std::uint64_t MachinePool::acquired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acquired_;
}

// ---------------------------------------------------------------------------
// StudyResult
// ---------------------------------------------------------------------------

const CellValue& StudyResult::at(const CellKey& key) const {
  const auto it = cells_.find(key);
  if (it == cells_.end()) {
    throw std::out_of_range(
        "StudyResult: cell not in plan (benchmark/config/trial outside the "
        "plan cross-product, or serial baseline not requested)");
  }
  return it->second;
}

const RunResult& StudyResult::single(npb::Benchmark b, std::size_t config_index,
                                     int trial) const {
  const RunOptions& opt = plan_.options();
  return at(CellKey::from(b, plan_.configs().at(config_index), opt,
                          opt.trial_seed(trial)))
      .single;
}

const RunResult& StudyResult::serial(npb::Benchmark b, int trial) const {
  const RunOptions& opt = plan_.options();
  return at(CellKey::from(b, serial_config(), opt, opt.trial_seed(trial)))
      .single;
}

const PairResult& StudyResult::pair(std::size_t pair_index,
                                    std::size_t config_index, int trial) const {
  const RunOptions& opt = plan_.options();
  const auto& pr = plan_.pairs().at(pair_index);
  return at(CellKey::from(CellKey::Kind::kPair, pr.first, pr.second,
                          plan_.configs().at(config_index), opt,
                          opt.trial_seed(trial)))
      .pair;
}

double StudyResult::speedup(npb::Benchmark b, std::size_t config_index,
                            int trial) const {
  return serial(b, trial).wall_cycles /
         single(b, config_index, trial).wall_cycles;
}

TrialStats StudyResult::speedup_stats(npb::Benchmark b,
                                      std::size_t config_index) const {
  std::vector<double> speedups;
  const int n = plan_.options().trials;
  speedups.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) speedups.push_back(speedup(b, config_index, t));
  return summarize(speedups);
}

// ---------------------------------------------------------------------------
// ExperimentEngine
// ---------------------------------------------------------------------------

ExperimentEngine::ExperimentEngine(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

MachinePool& ExperimentEngine::pool_for(const sim::MachineParams& params) {
  const std::string key = params_pool_key(params);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = pools_[key];
  if (slot == nullptr) slot = std::make_unique<MachinePool>(params);
  return *slot;
}

void ExperimentEngine::set_store(std::shared_ptr<CellStore> store) {
  std::lock_guard<std::mutex> lock(mu_);
  store_ = std::move(store);
}

const CellValue* ExperimentEngine::lookup(const CellKey& key) {
  std::shared_ptr<CellStore> store;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++cache_hits_;
      return &it->second;
    }
    store = store_;
  }
  if (store == nullptr) return nullptr;
  // Store I/O happens outside mu_ so a slow disk never serializes the
  // worker pool.  Cache entries are never erased, so the returned pointer
  // stays valid after the lock drops.
  CellValue v;
  if (!store->load_cell(key, &v)) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_.emplace(key, std::move(v)).first;
  ++store_hits_;
  return &it->second;
}

const CellValue& ExperimentEngine::memoize(const CellKey& key,
                                           CellValue value) {
  const CellValue* stored = nullptr;
  bool fresh = false;
  std::shared_ptr<CellStore> store;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = cache_.emplace(key, std::move(value));
    if (inserted) ++cache_misses_;
    stored = &it->second;
    fresh = inserted;
    store = store_;
  }
  if (fresh && store != nullptr) {
    store->store_cell(key, *stored);
    std::lock_guard<std::mutex> lock(mu_);
    ++store_writes_;
  }
  return *stored;
}

CellValue ExperimentEngine::compute_cell(
    sim::Machine& machine, const CellKey& key, const StudyConfig& cfg,
    const RunOptions& opt) {
  CellValue v;
  if (key.kind == CellKey::Kind::kSingle) {
    v.single = run_single(machine, key.a, cfg, opt, key.seed);
  } else {
    v.pair = run_pair(machine, key.a, key.b, cfg, opt, key.seed);
  }
  return v;
}

void ExperimentEngine::enumerate_cells(
    const ExperimentPlan& plan,
    const std::function<void(const CellKey&, const StudyConfig&)>& fn) {
  const RunOptions& opt = plan.options();
  for (int t = 0; t < opt.trials; ++t) {
    const std::uint64_t seed = opt.trial_seed(t);
    for (const npb::Benchmark b : plan.benchmarks()) {
      for (const StudyConfig& cfg : plan.configs()) {
        fn(CellKey::from(b, cfg, opt, seed), cfg);
      }
    }
    for (const auto& [a, b] : plan.pairs()) {
      for (const StudyConfig& cfg : plan.configs()) {
        fn(CellKey::from(CellKey::Kind::kPair, a, b, cfg, opt, seed), cfg);
      }
    }
    if (plan.serial_baselines()) {
      // Every benchmark the plan mentions, deduplicated in first-mention
      // order so enumeration (and therefore dispatch) is deterministic.
      std::vector<npb::Benchmark> mentioned;
      const auto mention = [&mentioned](npb::Benchmark b) {
        for (const npb::Benchmark m : mentioned) {
          if (m == b) return;
        }
        mentioned.push_back(b);
      };
      for (const npb::Benchmark b : plan.benchmarks()) mention(b);
      for (const auto& [a, b] : plan.pairs()) {
        mention(a);
        mention(b);
      }
      for (const npb::Benchmark b : mentioned) {
        fn(CellKey::from(b, serial_config(), opt, seed), serial_config());
      }
    }
  }
}

StudyResult ExperimentEngine::run(const ExperimentPlan& plan) {
  const RunOptions& opt = plan.options();

  // 1. Enumerate the plan's cells, deduplicating against both the cache and
  //    earlier occurrences within this plan.
  std::vector<Work> todo;
  std::unordered_set<CellKey, CellKeyHash> queued;
  enumerate_cells(plan, [&](const CellKey& key, const StudyConfig& cfg) {
    if (queued.contains(key)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++cache_hits_;
      return;
    }
    if (lookup(key) != nullptr) return;  // lookup() counted the hit
    queued.insert(key);
    todo.push_back(Work{key, &cfg});
  });

  // 2. Simulate the missing cells on the worker pool: each cell leases a
  //    pooled machine and is memoized (and written through) as it finishes.
  MachinePool& pool = pool_for(opt.machine_params());
  for_each(todo.size(), [&](std::size_t i) {
    MachinePool::Lease lease = pool.acquire();
    memoize(todo[i].key, compute_cell(*lease, todo[i].key, *todo[i].cfg, opt));
  });

  // 3. Assemble the result table from the cache.
  StudyResult result;
  result.plan_ = plan;
  enumerate_cells(plan, [&](const CellKey& key, const StudyConfig&) {
    if (result.cells_.contains(key)) return;
    std::lock_guard<std::mutex> lock(mu_);
    result.cells_.emplace(key, cache_.at(key));
  });
  return result;
}

model::Placement placement_for(const StudyConfig& cfg,
                               const sim::Topology& topo) {
  model::Placement pl;
  const std::size_t n = cfg.cpus.size();
  pl.threads = n == 0 ? 1 : static_cast<int>(n);
  std::vector<int> per_core(
      static_cast<std::size_t>(std::max(1, topo.total_cores())), 0);
  std::vector<int> per_chip(
      static_cast<std::size_t>(std::max(1, topo.packages)), 0);
  for (std::size_t r = 0; r < n && r < pl.rank_core.size(); ++r) {
    const sim::LogicalCpu c = cfg.cpus[r];
    const int core_id = topo.core_id(c.chip, c.core);
    pl.rank_core[r] = static_cast<std::uint8_t>(core_id);
    if (core_id >= 0 && static_cast<std::size_t>(core_id) < per_core.size()) {
      ++per_core[static_cast<std::size_t>(core_id)];
    }
    if (c.chip < per_chip.size()) ++per_chip[c.chip];
  }
  int cores = 0;
  int share = 1;
  for (const int occ : per_core) {
    if (occ > 0) ++cores;
    share = std::max(share, occ);
  }
  int chips = 0;
  int chip_share = 1;
  for (const int occ : per_chip) {
    if (occ > 0) ++chips;
    chip_share = std::max(chip_share, occ);
  }
  pl.cores_used = std::max(1, cores);
  pl.chips_used = std::max(1, chips);
  pl.contexts_per_core = share;
  pl.contexts_per_chip = chip_share;
  return pl;
}

ExperimentEngine::ProfileMemo ExperimentEngine::memo_profile(
    npb::Benchmark b, const RunOptions& opt, std::uint64_t seed,
    bool& reused, bool wait) {
  seed = simulated_seed(b, b, seed);
  const std::string key = profile_key(b, opt, seed);
  std::promise<ProfileMemo> promise;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = profiles_.find(key);
    if (it != profiles_.end()) {
      const std::shared_future<ProfileMemo> memo = it->second;
      lock.unlock();
      reused = true;
      if (!wait) return {};
      return memo.get();  // waits for a run still going; rethrows its error
    }
    profiles_.emplace(key, promise.get_future().share());
  }
  reused = false;
  // Profile outside the lock, on a pooled machine whose lease is returned
  // before any waiter wakes.
  try {
    ProfileMemo memo;
    {
      MachinePool::Lease lease = pool_for(opt.machine_params()).acquire();
      ProfiledRun run = run_profiled_serial(*lease, b, opt, seed);
      memo.profile =
          std::make_shared<const model::KernelProfile>(std::move(run.profile));
      memo.host_sec = run.result.host_sim_sec;
    }
    promise.set_value(memo);
    return memo;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      profiles_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

std::shared_ptr<const model::KernelProfile> ExperimentEngine::profile(
    npb::Benchmark b, const RunOptions& opt, std::uint64_t seed) {
  bool reused = false;
  return memo_profile(b, opt, seed, reused, true).profile;
}

bool ExperimentEngine::start_profile(npb::Benchmark b, const RunOptions& opt,
                                     std::uint64_t seed) {
  bool reused = false;
  try {
    (void)memo_profile(b, opt, seed, reused, false);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

PredictionResult ExperimentEngine::predict(npb::Benchmark b,
                                           const StudyConfig& cfg,
                                           const RunOptions& opt,
                                           std::uint64_t seed) {
  // Persistent tier first: a stored prediction answers without profiling or
  // evaluating the model at all (the O(1) serve path).
  const CellKey pkey =
      CellKey::from(CellKey::Kind::kPredict, b, b, cfg, opt, seed);
  std::shared_ptr<CellStore> store;
  {
    std::lock_guard<std::mutex> lock(mu_);
    store = store_;
  }
  PredictionResult out;
  if (store != nullptr && store->load_prediction(pkey, &out.prediction)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++store_hits_;
    return out;
  }
  const ProfileMemo memo =
      memo_profile(b, opt, pkey.seed, out.profile_reused, true);
  if (!out.profile_reused) out.profile_host_sec = memo.host_sec;
  // paxlint: allow(wallclock) -- predict_host_sec provenance timing; the prediction itself is host-time-free
  const auto t0 = std::chrono::steady_clock::now();
  const sim::MachineParams mp = opt.machine_params();
  out.prediction =
      model::predict(*memo.profile, mp, placement_for(cfg, mp.topology));
  // paxlint: allow(wallclock) -- predict_host_sec provenance timing; the prediction itself is host-time-free
  const auto t1 = std::chrono::steady_clock::now();
  out.predict_host_sec = std::chrono::duration<double>(t1 - t0).count();
  if (store != nullptr) {
    store->store_prediction(pkey, out.prediction);
    std::lock_guard<std::mutex> lock(mu_);
    ++store_writes_;
  }
  return out;
}

RunResult ExperimentEngine::single(npb::Benchmark b, const StudyConfig& cfg,
                                   const RunOptions& opt, std::uint64_t seed) {
  const CellKey key = CellKey::from(b, cfg, opt, seed);
  if (const CellValue* hit = lookup(key)) return hit->single;
  MachinePool::Lease lease = pool_for(opt.machine_params()).acquire();
  return memoize(key, compute_cell(*lease, key, cfg, opt)).single;
}

RunResult ExperimentEngine::serial(npb::Benchmark b, const RunOptions& opt,
                                   std::uint64_t seed) {
  return single(b, serial_config(), opt, seed);
}

PairResult ExperimentEngine::pair(npb::Benchmark a, npb::Benchmark b,
                                  const StudyConfig& cfg, const RunOptions& opt,
                                  std::uint64_t seed) {
  const CellKey key = CellKey::from(CellKey::Kind::kPair, a, b, cfg, opt, seed);
  if (const CellValue* hit = lookup(key)) return hit->pair;
  MachinePool::Lease lease = pool_for(opt.machine_params()).acquire();
  return memoize(key, compute_cell(*lease, key, cfg, opt)).pair;
}

ScheduledResult ExperimentEngine::scheduled(
    const std::vector<npb::Benchmark>& benches, const StudyConfig& cfg,
    sched::Scheduler& policy, const RunOptions& opt, std::uint64_t seed) {
  MachinePool::Lease lease = pool_for(opt.machine_params()).acquire();
  return run_scheduled(*lease, benches, cfg, policy, opt, seed);
}

TimelineResult ExperimentEngine::timeline(npb::Benchmark b,
                                          const StudyConfig& cfg,
                                          const RunOptions& opt,
                                          std::uint64_t seed) {
  MachinePool::Lease lease = pool_for(opt.machine_params()).acquire();
  return run_timeline(*lease, b, cfg, opt, seed);
}

void ExperimentEngine::for_each(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), n);
  std::atomic<std::size_t> next{0};
  auto loop = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  if (workers <= 1) {
    loop();
    return;
  }
  std::vector<std::thread> threads;
  std::mutex err_mu;
  std::exception_ptr first_error;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      try {
        loop();
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (first_error == nullptr) first_error = std::current_exception();
        // Drain the queue so the other workers stop promptly.
        next.store(n);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

EngineStats ExperimentEngine::stats() const {
  EngineStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.cache_hits = cache_hits_;
    s.cache_misses = cache_misses_;
    s.store_hits = store_hits_;
    s.store_writes = store_writes_;
    // paxlint: allow(determinism) -- integer sums over all pools; addition commutes, so hash order cannot change the totals
    for (const auto& [key, pool] : pools_) {
      (void)key;
      s.machines_created += pool->created();
      s.machines_acquired += pool->acquired();
    }
  }
  return s;
}

}  // namespace paxsim::harness
