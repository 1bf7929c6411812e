// Throughput microbenchmarks (google-benchmark) for the hot paths behind
// the figure reproductions — neighbour selection, equilibrium
// construction, multicast tree construction, stable-tree assembly — plus
// the batched-publish data plane (subscriber-window range admission,
// retained-buffer range insert/evict, root coalescing flush) and the
// event queue under the cancel-heavy load reliable traffic produces.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <any>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "geometry/distance.hpp"
#include "geometry/random_points.hpp"
#include "groups/group_manager.hpp"
#include "groups/group_tree.hpp"
#include "groups/pubsub.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "multicast/flooding.hpp"
#include "multicast/space_partition.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/grid_knn.hpp"
#include "overlay/hyperplane_k.hpp"
#include "overlay/orthant_sweep.hpp"
#include "sim/event_queue.hpp"
#include "stability/lifetime.hpp"
#include "stability/stable_tree.hpp"
#include "util/rng.hpp"

namespace {

using namespace geomcast;

std::vector<geometry::Point> make_points(std::size_t n, std::size_t dims) {
  util::Rng rng(0x5eedULL + n * 31 + dims);
  return geometry::random_points(rng, n, dims);
}

void BM_EmptyRectSelect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dims = static_cast<std::size_t>(state.range(1));
  const auto points = make_points(n, dims);
  const auto candidates = overlay::candidates_excluding(points, 0);
  const overlay::EmptyRectSelector selector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(points[0], candidates));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EmptyRectSelect)->Args({1000, 2})->Args({1000, 5})->Args({5000, 2});

void BM_OrthogonalKSelect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dims = static_cast<std::size_t>(state.range(1));
  const auto points = make_points(n, dims);
  const auto candidates = overlay::candidates_excluding(points, 0);
  const auto selector = overlay::HyperplaneKSelector::orthogonal(dims, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(points[0], candidates));
  }
}
BENCHMARK(BM_OrthogonalKSelect)->Args({1000, 2})->Args({1000, 10});

void BM_EquilibriumBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = make_points(n, 2);
  const overlay::EmptyRectSelector selector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay::build_equilibrium(points, selector));
  }
}
BENCHMARK(BM_EquilibriumBuild)->Arg(200)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_MulticastBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dims = static_cast<std::size_t>(state.range(1));
  const auto points = make_points(n, dims);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(multicast::build_multicast_tree(graph, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MulticastBuild)->Args({1000, 2})->Args({1000, 5});

void BM_FloodingBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = make_points(n, 2);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(multicast::build_flooding_tree(graph, 0));
  }
}
BENCHMARK(BM_FloodingBuild)->Arg(1000);

void BM_OrthantSweepIndexBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = make_points(n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay::OrthantSweepIndex(points));
  }
}
BENCHMARK(BM_OrthantSweepIndexBuild)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_StableTreeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<double> departure_times;
  const auto points = stability::lifetime_points(rng, n, 5, 1000.0, departure_times);
  const overlay::OrthantSweepIndex index(points);
  const auto selections = index.select_k(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stability::build_stable_tree_from_selections(
        selections, points, departure_times));
  }
}
BENCHMARK(BM_StableTreeBuild)->Arg(1000);

// ---------------------------------------------------------- event queue ----

// The cancel-heavy pattern every acked hop produces: schedule a
// retransmit timer, then cancel it when the ack lands. Without heap
// compaction the corpses pile up and every push/pop pays their log; the
// arg is the live:cancelled ratio (1 cancel kept per `range` scheduled).
void BM_EventQueueCancelChurn(benchmark::State& state) {
  const auto keep_every = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    std::size_t fired = 0;
    for (int round = 0; round < 64; ++round) {
      std::vector<sim::EventId> ids;
      ids.reserve(1024);
      const double base = 1.0 + round;
      for (int i = 0; i < 1024; ++i)
        ids.push_back(queue.schedule(base + 0.0001 * i, [&fired] { ++fired; }));
      for (std::size_t i = 0; i < ids.size(); ++i)
        if (i % keep_every != 0) queue.cancel(ids[i]);
      while (queue.pending() > 0) queue.run_next();
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 1024);
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(2)->Arg(8)->Arg(64);

// ------------------------------------------------------- simulator core ----

// The baseline the BM_SimCore* cells measure the timer wheel against: a
// binary heap (std::push_heap / std::pop_heap) over the same 16-byte
// (when, id) entries, with the same bookkeeping sim::EventQueue does
// around its rungs — the past-time and null-callback checks, a dense
// id-indexed slot table with a sliding base and periodic prefix trim, and
// the liveness test a lazily cancelling queue runs on its top entry. Only
// the rung structure differs, so the ratio prices the wheel itself.
class HeapQueue {
 public:
  void schedule(double when, sim::RawFn fn, void* ctx, std::uint64_t arg) {
    if (when < last_popped_) throw std::invalid_argument("HeapQueue: time is in the past");
    if (fn == nullptr) throw std::invalid_argument("HeapQueue: null callback");
    heap_.push_back(Entry{when, base_ + slots_.size()});
    slots_.push_back(Slot{fn, ctx, arg});
    ++live_;
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  bool run_next() {
    while (!heap_.empty() && !live(heap_.front().id)) pop();
    if (heap_.empty()) return false;
    const Entry entry = pop();
    const Slot slot = slots_[entry.id - base_];
    slots_[entry.id - base_].fn = nullptr;
    --live_;
    last_popped_ = entry.when;
    if ((++pops_ & 0x3FFF) == 0) trim();
    slot.fn(slot.ctx, slot.arg);
    return true;
  }
  [[nodiscard]] std::size_t pending() const { return live_; }

 private:
  struct Entry {
    double when;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };
  struct Slot {
    sim::RawFn fn;
    void* ctx;
    std::uint64_t arg;
  };
  [[nodiscard]] bool live(std::uint64_t id) const {
    return id >= base_ && id - base_ < slots_.size() && slots_[id - base_].fn != nullptr;
  }
  Entry pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry entry = heap_.back();
    heap_.pop_back();
    return entry;
  }
  void trim() {
    std::size_t lead = 0;
    while (lead < slots_.size() && slots_[lead].fn == nullptr) ++lead;
    if (lead >= 4096 && lead >= slots_.size() / 2) {
      slots_.erase(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(lead));
      base_ += lead;
    }
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint64_t base_ = 1;
  std::size_t live_ = 0;
  std::uint64_t pops_ = 0;
  double last_popped_ = 0.0;
};

void count_event(void* ctx, std::uint64_t arg) { *static_cast<std::uint64_t*>(ctx) += arg; }

// Raw-callback dispatch on the near-horizon schedule-then-pop cycle the
// simulator hot loop runs per envelope: 64 rounds of 1024 events over a
// ~0.1s horizon each — dense occupancy, the regime the 1000-peer cells run
// the wheel in. Arg 0 = HeapQueue baseline, 1 = sim::EventQueue. CI gates
// the wheel's events/sec ratio over the baseline.
template <typename Queue>
void run_dispatch_rounds(Queue& queue, std::uint64_t& fired) {
  for (int round = 0; round < 64; ++round) {
    const double base = 0.1 * round;
    for (int i = 0; i < 1024; ++i)
      queue.schedule(base + 0.0001 * (i % 1000), &count_event, &fired, 1);
    while (queue.pending() > 0) queue.run_next();
  }
}

void BM_SimCoreQueueDispatch(benchmark::State& state) {
  for (auto _ : state) {
    std::uint64_t fired = 0;
    if (state.range(0) == 0) {
      HeapQueue queue;
      run_dispatch_rounds(queue, fired);
    } else {
      sim::EventQueue queue;
      run_dispatch_rounds(queue, fired);
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 1024);
}
BENCHMARK(BM_SimCoreQueueDispatch)->Arg(0)->Arg(1);

// The sparse regime that historically regressed the wheel: few events
// spread over a long horizon, so most rung buckets are empty and a naive
// pop walks thousands of dead buckets per event. The per-rung occupancy
// bitmaps turn that walk into a ctz hop; CI gates wheel >= 1.0x the heap
// baseline here so the dense-dispatch win can never be bought back with a
// sparse regression. 8192 events over a ~800s horizon, scheduled far ahead
// so every ring level is exercised. Args as BM_SimCoreQueueDispatch.
template <typename Queue>
void run_sparse_horizon(Queue& queue, std::uint64_t& fired) {
  util::Rng rng(97);
  for (int i = 0; i < 8192; ++i)
    queue.schedule(rng.uniform(0.0, 800.0), &count_event, &fired, 1);
  while (queue.pending() > 0) queue.run_next();
}

void BM_SimCoreQueueSparseHorizon(benchmark::State& state) {
  for (auto _ : state) {
    std::uint64_t fired = 0;
    if (state.range(0) == 0) {
      HeapQueue queue;
      run_sparse_horizon(queue, fired);
    } else {
      sim::EventQueue queue;
      run_sparse_horizon(queue, fired);
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_SimCoreQueueSparseHorizon)->Arg(0)->Arg(1);

// ------------------------------------------------- batched publish plane ----

// Range admission through a SubscriberWindow: the batched data plane
// observes dense [lo, hi] ranges instead of single seqs. Args: batch
// width x whether every other batch is withheld first (gap + backfill,
// the repair-path shape) or arrives in order (the hot path).
void BM_SubscriberWindowRangeAdmission(benchmark::State& state) {
  const auto width = static_cast<std::uint64_t>(state.range(0));
  const bool gappy = state.range(1) != 0;
  constexpr std::uint64_t kBatches = 512;
  for (auto _ : state) {
    groups::SubscriberWindow window(/*reorder_limit=*/16 * 1024);
    std::uint64_t released = 0;
    if (gappy) {
      // Even batches arrive late: odd batches open gaps, then the evens
      // backfill them — exercising the per-seq split machinery.
      for (std::uint64_t b = 0; b < kBatches; b += 2) {
        const std::uint64_t lo = (b + 1) * width;
        released += window.observe_range(lo, lo + width - 1).released.size();
      }
      for (std::uint64_t b = 0; b < kBatches; b += 2) {
        const std::uint64_t lo = b * width;
        released += window.observe_range(lo, lo + width - 1).released.size();
      }
    } else {
      for (std::uint64_t b = 0; b < kBatches; ++b) {
        const std::uint64_t lo = b * width;
        released += window.observe_range(lo, lo + width - 1).released.size();
      }
    }
    benchmark::DoNotOptimize(released);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatches * width));
}
BENCHMARK(BM_SubscriberWindowRangeAdmission)
    ->Args({1, 0})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0});

// Range insert/evict through a RetainedBuffer at steady state: every
// insert past the window evicts the oldest range. Arg: range width (the
// batch factor); capacity is fixed so wider ranges mean fewer entries.
void BM_RetainedBufferRangeInsert(benchmark::State& state) {
  const auto width = static_cast<std::uint64_t>(state.range(0));
  constexpr std::size_t kCapacity = 64;
  constexpr std::uint64_t kWaves = 1024;
  for (auto _ : state) {
    groups::RetainedBuffer buffer(kCapacity);
    std::size_t evicted = 0;
    for (std::uint64_t w = 0; w < kWaves; ++w) {
      const std::uint64_t lo = w * width;
      evicted += buffer.retain(lo, lo + width - 1, std::any{w});
    }
    benchmark::DoNotOptimize(evicted);
    benchmark::DoNotOptimize(buffer.find((kWaves - 1) * width));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWaves));
}
BENCHMARK(BM_RetainedBufferRangeInsert)->Arg(1)->Arg(8)->Arg(64);

// ------------------------------------------------------- graft descent ----

// One full zone-descent graft, step by step through the resumable
// GraftCursor (the unit the routed control plane executes once per
// envelope), followed by the prune that restores the tree — so every
// iteration runs against the identical cached state with no per-iteration
// copy. Items = descent decisions, i.e. the per-step cost the distributed
// graft pays at each hop.
void BM_GraftCursorStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = make_points(n, 3);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  util::Rng rng(23);
  std::vector<bool> subscribers(n, false);
  for (std::size_t picked = 0; picked < 32;) {
    const auto p = static_cast<overlay::PeerId>(rng.next_below(n));
    if (p == 0 || subscribers[p]) continue;
    subscribers[p] = true;
    ++picked;
  }
  auto gt = groups::build_group_tree(graph, /*root=*/0, subscribers);
  // A peer the descent must actually walk to (not already a relay).
  overlay::PeerId target = overlay::kInvalidPeer;
  for (overlay::PeerId p = 0; p < n; ++p)
    if (!subscribers[p] && !gt.tree.reached(p)) {
      target = p;
      break;
    }
  std::int64_t steps = 0;
  for (auto _ : state) {
    auto cursor = groups::graft_cursor(gt, target);
    while (groups::graft_step(graph, gt, cursor).status ==
           groups::GraftStatus::kDescend) {
    }
    steps += static_cast<std::int64_t>(cursor.steps);
    groups::prune_subscriber(gt, target);  // exact inverse: tree restored
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_GraftCursorStep)->Arg(200)->Arg(1000);

// Grid-kNN knowledge sets (k = 16, 3-D) over 10k and 100k uniform peers:
// the query loop behind every local-knowledge overlay build. Items are
// queries, so items/s is queries/s; per-query work is O(k) expected, and
// the validator prints the 10k/100k throughput ratio. Points are drawn
// once per size and shared by every repetition.
void BM_GridKnn(benchmark::State& state) {
  static std::map<std::size_t, std::vector<geometry::Point>> point_sets;
  const auto n = static_cast<std::size_t>(state.range(0));
  auto it = point_sets.find(n);
  if (it == point_sets.end()) it = point_sets.emplace(n, make_points(n, 3)).first;
  for (auto _ : state) benchmark::DoNotOptimize(overlay::grid_knn(it->second, 16));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GridKnn)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

// One group-tree build over 64 fixed members — the peers nearest the root
// (peer 0), like the neighbourhood groups of the 100k sweep — on grid-kNN
// overlays (k = 16) of 10k and 100k peers. Tree state and work scale with
// the members, not the peer count, so CI gates the median paired 100k/10k
// time ratio at <= 1.5x (BM_GroupTreeBuild). Each overlay is built once and
// shared by every repetition; only the build is timed.
void BM_GroupTreeBuild(benchmark::State& state) {
  struct Setup {
    overlay::OverlayGraph graph;
    std::vector<overlay::PeerId> members;  // ascending
  };
  static std::map<std::size_t, Setup> setups;
  const auto n = static_cast<std::size_t>(state.range(0));
  auto it = setups.find(n);
  if (it == setups.end()) {
    Setup setup{overlay::build_equilibrium_local(make_points(n, 3),
                                                 overlay::EmptyRectSelector{}, 16),
                {}};
    std::vector<std::pair<double, overlay::PeerId>> by_dist;
    for (overlay::PeerId p = 1; p < n; ++p)
      by_dist.emplace_back(geometry::l2_distance_sq(setup.graph.point(p), setup.graph.point(0)),
                           p);
    std::partial_sort(by_dist.begin(), by_dist.begin() + 64, by_dist.end());
    for (std::size_t i = 0; i < 64; ++i) setup.members.push_back(by_dist[i].second);
    std::sort(setup.members.begin(), setup.members.end());
    it = setups.emplace(n, std::move(setup)).first;
  }
  const Setup& setup = it->second;
  std::size_t reached = 0;
  for (auto _ : state)
    reached += groups::build_group_tree(setup.graph, 0, setup.members).reached_subscribers;
  benchmark::DoNotOptimize(reached);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(setup.members.size()));
}
BENCHMARK(BM_GroupTreeBuild)->Arg(10000)->Arg(100000);

// Routed graft, end to end on the simulated network: 16 early subscribers
// build the tree, 16 late ones graft into it, every descent step a routed
// QoS 1 envelope — the full distribution cost of the control plane
// (envelopes, acks, timers), the regression this guard watches.
void BM_RoutedGraft(benchmark::State& state) {
  const auto points = make_points(64, 3);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  for (auto _ : state) {
    groups::PubSubConfig config;
    config.reliability.qos = multicast::QoS::kAcked;
    groups::PubSubSystem system(graph, config);
    for (overlay::PeerId p = 1; p < 17; ++p)
      system.subscribe_at(0.001 * static_cast<double>(p), p, /*group=*/0);
    system.publish_at(2.0, 1, /*group=*/0);
    for (overlay::PeerId p = 17; p < 33; ++p)
      system.subscribe_at(3.0 + 0.01 * static_cast<double>(p), p, /*group=*/0);
    system.publish_at(6.0, 1, /*group=*/0);
    benchmark::DoNotOptimize(system.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_RoutedGraft)->Unit(benchmark::kMillisecond);

// Root coalescing flush, end to end: a publish burst lands at the root,
// buffers, and flushes as one range wave down a real 64-peer group tree
// (the simulated network included, so this prices the whole flush path,
// not just the buffer). Arg: burst size; 1 runs the unbatched pipeline
// for the baseline column.
void BM_RootCoalescingFlush(benchmark::State& state) {
  const auto burst = static_cast<std::size_t>(state.range(0));
  const auto points = make_points(64, 3);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  for (auto _ : state) {
    groups::PubSubConfig config;
    config.reliability.qos = multicast::QoS::kAcked;
    if (burst > 1) {
      config.batch_window = 0.05;
      config.max_batch = burst;
    }
    groups::PubSubSystem system(graph, config);
    for (overlay::PeerId p = 1; p < 33; ++p)
      system.subscribe_at(0.001 * static_cast<double>(p), p, /*group=*/0);
    for (int round = 0; round < 8; ++round)
      for (std::size_t i = 0; i < burst; ++i)
        system.publish_at(2.0 + 0.5 * round, 1, /*group=*/0);
    benchmark::DoNotOptimize(system.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 *
                          static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_RootCoalescingFlush)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------- observability ----

// The zero-cost-disabled claim, priced: the identical pub/sub workload
// with no trace sink (arg 0, the default every production run takes) vs a
// sink attached (arg 1). Disabled tracing is one null-check per potential
// emit point, so the two timings should be indistinguishable; a visible
// delta means a hot path started paying for tracing it isn't using.
void BM_TracerDisabledOverhead(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  const auto points = make_points(64, 3);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  obs::TraceSink sink;
  for (auto _ : state) {
    groups::PubSubConfig config;
    config.reliability.qos = multicast::QoS::kAcked;
    groups::PubSubSystem system(graph, config);
    if (traced) system.set_trace_sink(&sink);
    for (overlay::PeerId p = 1; p < 33; ++p)
      system.subscribe_at(0.001 * static_cast<double>(p), p, /*group=*/0);
    for (int round = 0; round < 8; ++round)
      system.publish_at(2.0 + 0.5 * round, 1, /*group=*/0);
    benchmark::DoNotOptimize(system.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_TracerDisabledOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Histogram record (the per-delivery cost on the data plane: one frexp +
// one array increment) and bucket-wise merge (the per-group cost when
// total_stats() folds G group histograms together). Arg: values recorded
// per iteration / histograms merged per iteration.
void BM_HistogramRecordMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> values(n);
  util::Rng rng(17);
  for (auto& v : values) v = rng.uniform(1e-4, 10.0);
  obs::Histogram base;
  for (const double v : values) base.record(v);
  for (auto _ : state) {
    obs::Histogram recorded;
    for (const double v : values) recorded.record(v);
    obs::Histogram merged;
    merged.merge(base);
    merged.merge(recorded);
    benchmark::DoNotOptimize(merged.count());
    benchmark::DoNotOptimize(merged.p99());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HistogramRecordMerge)->Arg(64)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
