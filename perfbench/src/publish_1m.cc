// Workload `publish-1m`: the in-process closed loop at large n. A
// ShardedRankServer over n=1,000,000 pages (u=1000, 4 shards,
// selective(r=0.10,k=2), registry attached) is read by two closed-loop
// reader threads -- ServeBatch of 16 queries, m=10, plus one RecordVisit per
// query at a pre-drawn rank -- while this thread publishes every 100 ms:
// DrainVisits -> FoldVisits -> ApplyDeaths (about 1% of pages per epoch,
// pre-drawn) -> Update. Every 4th publish hot-swaps to
// plackett-luce(T=0.25), whose O(n) alias-table epoch state is the
// expensive publish; the next one swaps back. No socket and no BatchQueue:
// a change to either must predict no change here. End to end it reports
// the writer's throughput in pages published per second and the latency
// of one publish cycle (the click-to-rank freshness).

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "core/community.h"
#include "core/policy/policy_factory.h"
#include "exp/page_lifecycle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/feedback.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace randrank;

constexpr size_t kShards = 4;
constexpr size_t kTopM = 10;
constexpr size_t kBatch = 16;
constexpr size_t kReaders = 2;
constexpr uint64_t kEpochNs = 100'000'000;
constexpr size_t kSwapEvery = 4;
constexpr double kDeathShare = 0.01;
constexpr int kSetupReps = 9;
/// Traced run: time alternates between untraced and traced windows of this
/// length (readers record a span for one batch in kSpanEvery in the traced
/// ones), so both sides of the tracing overhead see the same publish mix.
constexpr double kWindowSeconds = 0.5;
constexpr uint64_t kSpanEvery = 64;
/// The publish tail reported end to end: a 20 s run publishes about 50
/// times, and p80 is the highest quantile with ten publishes beyond it.
constexpr double kPublishTailQuantile = 0.8;
constexpr const char* kPolicy = "selective(r=0.10,k=2)";
constexpr const char* kSwapPolicy = "plackett-luce(T=0.25)";

/// Batch durations in nanoseconds, 10 ns buckets up to 100 us plus exact
/// overflow values: order statistics without storing every batch.
class NsHistogram {
 public:
  NsHistogram() : buckets_(kBuckets, 0) {}
  void Add(uint64_t ns) {
    ++count_;
    if (ns < kBuckets * kWidth) {
      ++buckets_[ns / kWidth];
    } else {
      overflow_.push_back(ns);
    }
  }
  void Merge(const NsHistogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    overflow_.insert(overflow_.end(), o.overflow_.begin(), o.overflow_.end());
    count_ += o.count_;
  }
  /// Quantile in nanoseconds (bucket midpoint inside the histogram range).
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    const uint64_t rank =
        std::min(count_ - 1, static_cast<uint64_t>(q * static_cast<double>(count_)));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen > rank) return (static_cast<double>(i) + 0.5) * kWidth;
    }
    std::vector<uint64_t> over = overflow_;
    std::sort(over.begin(), over.end());
    return static_cast<double>(over[std::min(over.size() - 1, rank - seen)]);
  }

 private:
  static constexpr size_t kBuckets = 10000;
  static constexpr uint64_t kWidth = 10;
  std::vector<uint32_t> buckets_;
  std::vector<uint64_t> overflow_;
  uint64_t count_ = 0;
};

/// One reader's batch durations and query count, for one side (untraced
/// or traced windows) of a pass. Durations cover batches served under the
/// promotion policy only: a Plackett-Luce batch costs about ten times as
/// much, so the share of batches landing in its epochs -- which moves with
/// publish timing -- would otherwise set the p99.
struct ReaderTotals {
  NsHistogram batch_ns;
  uint64_t queries = 0;
};

struct System {
  obs::MetricsRegistry registry;
  obs::TraceLog program_trace{[] {
    obs::TraceOptions t;
    t.sample_every = 0;  // publish-phase spans only
    return t;
  }()};
  ServingPageState state;
  std::unique_ptr<ShardedRankServer> server;
};

class Publish1m {
 public:
  Publish1m(const RunOptions& opts, Report* report)
      : opts_(opts), report_(report) {
    community_ = CommunityParams::Default();
    community_.n = opts.small ? 100'000 : 1'000'000;
    community_.u = 1000;
  }

  void Run();

 private:
  /// Reader throughput and batch quantiles pooled over a whole pass (the
  /// pass mixes promotion and Plackett-Luce epochs, so per-window values
  /// would swing with the policy a window happened to catch).
  struct Side {
    double serve_qps = 0.0;
    double batch_p50_us = 0.0;
    double batch_p99_us = 0.0;
  };
  struct Pass {
    Side plain;   // every window untraced; the untraced windows when traced
    Side traced;  // the traced windows (traced run only)
    std::vector<double> publish_ms;  // per epoch
  };

  std::unique_ptr<System> SetUp(bool traced);
  Pass RunPass(double seconds, SpanLog* spans);
  void Reader(size_t index, uint64_t t_start, uint64_t t_end,
              uint64_t window_ns, ReaderTotals totals[2],
              SpanLog::Buffer* spans);

  const RunOptions& opts_;
  Report* report_;
  CommunityParams community_;
  std::unique_ptr<System> sys_;
  std::shared_ptr<const StochasticRankingPolicy> policy_;
  std::shared_ptr<const StochasticRankingPolicy> swap_policy_;

  // Pre-drawn inputs.
  std::vector<std::vector<uint32_t>> deaths_;
  std::vector<std::vector<uint8_t>> click_ranks_;  // per reader, a ring

  // Writer state and per-epoch layer timings.
  Rng fold_rng_{0};
  size_t epochs_ = 0;
  bool on_swap_ = false;
  /// Set while a Plackett-Luce epoch is the published one (readers keep
  /// its batches out of the latency histograms).
  std::atomic<bool> serving_swap_{false};
  std::vector<double> drain_ms_, fold_ms_, churn_ms_;
  std::vector<double> update_promotion_ms_, update_pl_ms_;
  uint64_t visits_total_ = 0;
  uint64_t deaths_total_ = 0;
  std::atomic<uint64_t> failures_{0};
};

std::unique_ptr<System> Publish1m::SetUp(bool traced) {
  auto sys = std::make_unique<System>();
  Rng rng = Rng::ForStream(opts_.seed, 0x5e70);
  sys->state = MakeServingPageState(community_, rng);
  // A mature index: every page starts discovered (all users aware,
  // popularity = quality), so the selective pool holds only the pages churn
  // brings in. From a cold start, readers speed up about 2x as the pool is
  // discovered, and how far that got by a given time depends on how many
  // publishes the machine managed.
  ServingPageState& st = sys->state;
  for (size_t p = 0; p < st.n(); ++p) {
    st.aware[p] = static_cast<uint32_t>(st.users);
    st.popularity[p] = st.quality[p];
    st.zero_awareness[p] = 0;
  }
  ServeOptions sopts;
  sopts.shards = kShards;
  sopts.seed = opts_.seed + 1;
  sopts.metrics = &sys->registry;
  sopts.trace = traced ? &sys->program_trace : nullptr;
  sys->server =
      std::make_unique<ShardedRankServer>(policy_, community_.n, sopts);
  report_->Attempt();
  if (!sys->server->Update(sys->state.popularity, sys->state.zero_awareness,
                           sys->state.birth_step)) {
    report_->Fail("initial publish rolled back");
  }
  return sys;
}

/// Closed-loop reader until t_end. With `spans`, odd windows of
/// `window_ns` are traced and accounted in totals[1], even ones in
/// totals[0]; without, everything lands in totals[0].
void Publish1m::Reader(size_t index, uint64_t t_start, uint64_t t_end,
                       uint64_t window_ns, ReaderTotals totals[2],
                       SpanLog::Buffer* spans) {
  ShardedRankServer& server = *sys_->server;
  ShardedRankServer::Context ctx = server.CreateContext();
  QueryBatch batch(kTopM, kBatch);
  ListChecker lists(community_.n, kTopM);
  const std::vector<uint8_t>& ranks = click_ranks_[index];
  size_t rank_pos = 0;
  uint64_t seq = 0;
  uint64_t failures = 0;
  while (NowNs() < t_start) {
  }
  while (true) {
    const uint64_t t0 = NowNs();
    if (t0 >= t_end) break;
    const bool traced = spans != nullptr && ((t0 - t_start) / window_ns) % 2 == 1;
    const bool swapped = serving_swap_.load(std::memory_order_relaxed);
    server.ServeBatch(ctx, &batch);
    const uint64_t t1 = NowNs();
    ReaderTotals& side = totals[traced ? 1 : 0];
    if (!swapped) side.batch_ns.Add(t1 - t0);
    side.queries += kBatch;
    if (traced && seq % kSpanEvery == 0) {
      spans->Add("serve.batch", "", (index << 48) | seq, t0, t1);
    }
    ++seq;
    for (const std::vector<uint32_t>& list : batch.results) {
      if (!lists.Check(list).empty()) {
        ++failures;
        continue;
      }
      server.RecordVisit(ctx, list[ranks[rank_pos++ % ranks.size()]]);
    }
  }
  server.FlushFeedback(ctx);
  failures_.fetch_add(failures);
}

Publish1m::Pass Publish1m::RunPass(double seconds, SpanLog* spans) {
  Pass pass;
  const size_t windows_n =
      std::max<size_t>(2, static_cast<size_t>(seconds / kWindowSeconds));
  const uint64_t window_ns =
      static_cast<uint64_t>(seconds * 1e9 / static_cast<double>(windows_n));
  const uint64_t t_start = NowNs() + 1'000'000;
  const uint64_t t_end = t_start + window_ns * windows_n;
  std::vector<std::array<ReaderTotals, 2>> totals(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    SpanLog::Buffer* buf = spans != nullptr ? spans->NewBuffer() : nullptr;
    readers.emplace_back([this, r, t_start, t_end, window_ns, &totals, buf] {
      Reader(r, t_start, t_end, window_ns, totals[r].data(), buf);
    });
  }

  // Writer: this thread, fixed 100 ms cadence from t_start.
  SpanLog::Buffer* wspans = spans != nullptr ? spans->NewBuffer(1 << 12) : nullptr;
  ShardedRankServer& server = *sys_->server;
  ServingPageState& state = sys_->state;
  // A publish that overruns its slot delays the next one to the following
  // slot boundary; no publish starts after the pass ends.
  for (uint64_t due = t_start + kEpochNs; due < t_end;) {
    while (NowNs() < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const std::vector<uint32_t>& deaths = deaths_[epochs_ % deaths_.size()];
    // Every kSwapEvery-th publish hot-swaps to Plackett-Luce; the next one
    // swaps back to the promotion policy.
    std::shared_ptr<const StochasticRankingPolicy> next_policy;
    const bool swap_in = (epochs_ + 1) % kSwapEvery == 0;
    if (swap_in) {
      next_policy = swap_policy_;
    } else if (on_swap_) {
      next_policy = policy_;
    }
    const uint64_t t0 = NowNs();
    const std::vector<uint64_t> visits = server.DrainVisits();
    const uint64_t t1 = NowNs();
    FoldVisits(visits, &state, fold_rng_);
    const uint64_t t2 = NowNs();
    PageLifecycle::ApplyDeaths(deaths, static_cast<int64_t>(server.epoch() + 1),
                               &state);
    const uint64_t t3 = NowNs();
    report_->Attempt();
    if (!server.Update(state.popularity, state.zero_awareness,
                       state.birth_step, next_policy)) {
      report_->Fail("publish rolled back");
    }
    const uint64_t t4 = NowNs();
    on_swap_ = swap_in;
    serving_swap_.store(swap_in, std::memory_order_relaxed);
    ++epochs_;
    drain_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6);
    fold_ms_.push_back(static_cast<double>(t2 - t1) * 1e-6);
    churn_ms_.push_back(static_cast<double>(t3 - t2) * 1e-6);
    (swap_in ? update_pl_ms_ : update_promotion_ms_)
        .push_back(static_cast<double>(t4 - t3) * 1e-6);
    pass.publish_ms.push_back(static_cast<double>(t4 - t0) * 1e-6);
    for (const uint64_t v : visits) visits_total_ += v;
    deaths_total_ += deaths.size();
    if (wspans != nullptr) {
      wspans->Add("feedback.drain", "writer.epoch", epochs_, t0, t1);
      wspans->Add("feedback.fold", "writer.epoch", epochs_, t1, t2);
      wspans->Add("exp.churn", "writer.epoch", epochs_, t2, t3);
      wspans->Add("serve.update", "writer.epoch", epochs_, t3, t4);
      wspans->Add("writer.epoch", "", epochs_, t0, t4);
    }
    due += kEpochNs * ((t4 - due) / kEpochNs + 1);
  }
  for (std::thread& t : readers) t.join();

  for (size_t side = 0; side < 2; ++side) {
    NsHistogram merged;
    uint64_t queries = 0;
    for (size_t r = 0; r < kReaders; ++r) {
      merged.Merge(totals[r][side].batch_ns);
      queries += totals[r][side].queries;
    }
    report_->Attempt(queries);
    // With spans, each side got every other window; without, side 0 got all.
    const double side_s = static_cast<double>(t_end - t_start) * 1e-9 *
                          (spans != nullptr ? 0.5 : 1.0);
    Side& out = side == 0 ? pass.plain : pass.traced;
    out.serve_qps = static_cast<double>(queries) / side_s;
    out.batch_p50_us = merged.Quantile(0.50) * 1e-3;
    out.batch_p99_us = merged.Quantile(0.99) * 1e-3;
  }
  std::cerr << "publish-1m: " << pass.publish_ms.size()
            << " publishes, p50/p90 " << Quantile(pass.publish_ms, 0.5) << "/"
            << Quantile(pass.publish_ms, 0.9) << " ms; serve "
            << pass.plain.serve_qps << "/s, batch p50/p99 "
            << pass.plain.batch_p50_us << "/" << pass.plain.batch_p99_us
            << " us\n";
  return pass;
}

void Publish1m::Run() {
  std::string error;
  policy_ = MakePolicyFromLabel(kPolicy, &error);
  swap_policy_ = MakePolicyFromLabel(kSwapPolicy, &error);

  // Pre-draw every input from the seed: page deaths per epoch (about 1% of
  // pages: PageLifecycle at lambda / 0.01 epochs per day) and each reader's
  // click ranks under the rank-bias law, P(rank i) ~ i^-1.5 over the top m.
  Rng rng = Rng::ForStream(opts_.seed, 0xd1e5);
  const PageLifecycle lifecycle(community_, community_.lambda() / kDeathShare);
  const size_t epochs =
      static_cast<size_t>(opts_.seconds * 1e9 / static_cast<double>(kEpochNs)) +
      8;
  for (size_t e = 0; e < epochs; ++e) deaths_.push_back(lifecycle.DrawDeaths(rng));
  std::vector<double> cdf(kTopM);
  double total = 0.0;
  for (size_t i = 0; i < kTopM; ++i) {
    total += std::pow(static_cast<double>(i + 1), -community_.rank_bias_exponent);
    cdf[i] = total;
  }
  for (size_t r = 0; r < kReaders; ++r) {
    click_ranks_.emplace_back(1 << 20);
    for (uint8_t& rank : click_ranks_.back()) {
      const double u = rng.NextDouble() * total;
      rank = static_cast<uint8_t>(
          std::min<size_t>(kTopM - 1, std::upper_bound(cdf.begin(), cdf.end(), u) -
                                          cdf.begin()));
    }
  }
  fold_rng_ = Rng::ForStream(opts_.seed, 0xf01d);

  // Set-up: community build and first publish, several times.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    sys_.reset();
    const uint64_t t0 = NowNs();
    sys_ = SetUp(opts_.trace);
    setup_s.push_back(SecondsSince(t0));
  }

  SpanLog spans;
  if (opts_.trace) sys_->program_trace.Drain();  // the set-up publishes
  const Pass pass = RunPass(opts_.seconds, opts_.trace ? &spans : nullptr);
  if (!opts_.trace) {
    // Writer throughput: pages published per second of publish work.
    double publish_s = 0.0;
    for (const double ms : pass.publish_ms) publish_s += ms * 1e-3;
    report_->Set("setup_s", Median(setup_s), "s");
    report_->Set("ops_per_s",
                 static_cast<double>(community_.n * pass.publish_ms.size()) /
                     publish_s,
                 "1/s");
    report_->Set("latency_p50_us", Quantile(pass.publish_ms, 0.50) * 1e3,
                 "us");
    report_->Set("latency_tail_us",
                 Quantile(pass.publish_ms, kPublishTailQuantile) * 1e3, "us");
    report_->Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const double epochs_run = static_cast<double>(std::max<size_t>(1, epochs_));
    const double batch_p50 = pass.traced.batch_p50_us;
    report_->Set("serve.batch_us_p50", batch_p50, "us");
    report_->Set("serve.batch_us_p99", pass.traced.batch_p99_us, "us");
    report_->Set("serve.ns_per_query", batch_p50 * 1e3 / kBatch, "ns");
    report_->Set("serve.reader_qps", pass.plain.serve_qps, "1/s");
    report_->Set("serve.cache_active",
                 sys_->server->PrefixCacheActive() ? 1.0 : 0.0, "bool");
    report_->Set("serve.update_ms_p50.promotion",
                 Quantile(update_promotion_ms_, 0.5), "ms");
    report_->Set("serve.update_ms_p90.promotion",
                 Quantile(update_promotion_ms_, 0.9), "ms");
    report_->Set("serve.update_ms_p50.plackett-luce",
                 Quantile(update_pl_ms_, 0.5), "ms");
    report_->Set("serve.update_ms_p90.plackett-luce",
                 Quantile(update_pl_ms_, 0.9), "ms");
    const std::vector<std::string> lines = sys_->program_trace.Drain();
    for (const char* phase : {"shards", "merge", "epoch_state", "rcu_publish"}) {
      report_->Set(std::string("serve.publish_phase_ms.") + phase,
                   Median(ProgramSpanDurationsUs(
                       lines, std::string("publish/") + phase)) *
                       1e-3,
                   "ms");
    }
    report_->Set("serve.publish_failures",
                 static_cast<double>(sys_->server->publish_failures()),
                 "count");
    report_->Set("feedback.drain_ms_p50", Median(drain_ms_), "ms");
    report_->Set("feedback.fold_ms_p50", Median(fold_ms_), "ms");
    report_->Set("feedback.visits_per_epoch",
                 static_cast<double>(visits_total_) / epochs_run, "count");
    report_->Set("exp.churn_ms_p50", Median(churn_ms_), "ms");
    report_->Set("exp.deaths_per_epoch",
                 static_cast<double>(deaths_total_) / epochs_run, "count");
    report_->Set("obs.trace_overhead_pct",
                 OverheadPct(pass.plain.serve_qps, pass.traced.serve_qps,
                             true),
                 "%");
    const std::string path = opts_.out_dir + "/trace-publish-1m-" +
                             std::to_string(opts_.seed) + ".jsonl";
    if (!spans.WriteJsonl(path)) report_->Invalidate("cannot write " + path);
  }
  if (failures_.load() > 0) {
    report_->Fail("ServeBatch returned an invalid result list",
                  failures_.load());
  }
  sys_.reset();
}

}  // namespace

void RunPublish1m(const RunOptions& opts, Report* report) {
  Publish1m(opts, report).Run();
}

}  // namespace perfbench
