// Workload `reproduce`: the researcher's path, single-threaded CPU work in
// sim, model, exp and bai -- no socket, no large-n publish. One claim set:
//
//  * AgentSimulator for `none` and `selective(r=0.10,k=1)` on
//    CommunityParams::Default() (1500 warm-up days, no ghosts), both over
//    the same seed set derived from the workload seed; nQPC is the mean
//    over seeds;
//  * MeanFieldModel and AnalyticModel for the same two configurations;
//  * a live A/B (control `none` vs treatment `selective(r=0.10,k=1)`)
//    through ExperimentManager for a fixed number of epochs, and a
//    BaiController over five arms with one planted best arm.
//
// The claim set's independent jobs run on min(4, cores) worker threads,
// longest first; the live A/B's replicates then run as a second stage on
// the same workers. Its end-to-end figures are the work rate (agent-sim
// days per second of the claim set's wall time) and the time each
// simulation job takes per simulated day.

#include <algorithm>
#include <atomic>
#include <functional>
#include <iostream>
#include <memory>
#include <thread>

#include "bai/arm_scheduler.h"
#include "bai/bai_controller.h"
#include "bench.h"
#include "checks.h"
#include "core/community.h"
#include "core/policy/policy_factory.h"
#include "core/ranking_policy.h"
#include "exp/experiment_manager.h"
#include "model/analytic_model.h"
#include "obs/trace.h"
#include "sim/agent_sim.h"
#include "sim/mean_field.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace randrank;

constexpr const char* kNone = "none";
constexpr const char* kSelective = "selective(r=0.10,k=1)";
constexpr size_t kWarmupDays = 1500;
constexpr int kSetupReps = 31;
constexpr size_t kAbEpochs = 40;
/// Live A/B replicates (each its own community and traffic seed), run as
/// kAbJobs jobs. Which pages start out discovered is a lottery -- when the
/// best pages start undiscovered, control never finds them -- so one
/// replicate's lift is bimodal; the lift is over the pooled replicates.
constexpr size_t kAbReplicates = 40;
constexpr size_t kAbJobs = 4;
constexpr size_t kBaiMaxEpochs = 40;
constexpr size_t kPlantedArm = 0;

struct Sizes {
  size_t seeds;
  size_t measured_days;
};

/// Every model object of one claim set, constructed (set-up) before the
/// timed run.
struct ClaimSet {
  std::vector<std::unique_ptr<AgentSimulator>> sims_none, sims_selective;
  std::unique_ptr<MeanFieldModel> mf_none, mf_selective;
  std::unique_ptr<AnalyticModel> an_none, an_selective;
  std::vector<std::unique_ptr<ExperimentManager>> ab;
  std::unique_ptr<ExperimentManager> bai_exp;
  std::unique_ptr<bai::BaiController> bai;
  obs::TraceLog bai_trace;
};

CommunityParams SmallCommunity() {
  CommunityParams c = CommunityParams::Default();
  c.n = 2000;
  c.u = 1000;
  c.m = 100;
  return c;
}

ExperimentOptions LiveOptions(uint64_t seed) {
  ExperimentOptions o;
  o.shards = 4;
  o.threads = 1;
  o.top_m = 10;
  o.queries_per_epoch = 15000;
  o.prediscovered_fraction = 0.5;
  o.seed = seed;
  return o;
}

std::unique_ptr<ClaimSet> Build(const Sizes& sizes,
                                const std::vector<uint64_t>& seeds,
                                bool traced) {
  auto cs = std::make_unique<ClaimSet>();
  const CommunityParams community = CommunityParams::Default();
  const auto none = MakePolicyFromLabel(kNone);
  const auto selective = MakePolicyFromLabel(kSelective);
  for (size_t s = 0; s < sizes.seeds; ++s) {
    SimOptions o;
    o.warmup_days = kWarmupDays;
    o.measure_days = sizes.measured_days;
    o.ghost_count = 0;
    o.seed = seeds[s];
    cs->sims_none.push_back(std::make_unique<AgentSimulator>(community, none, o));
    cs->sims_selective.push_back(
        std::make_unique<AgentSimulator>(community, selective, o));
  }
  cs->mf_none = std::make_unique<MeanFieldModel>(community, none);
  cs->mf_selective = std::make_unique<MeanFieldModel>(community, selective);
  RankPromotionConfig none_cfg, selective_cfg;
  RankPromotionConfig::ParseLabel(kNone, &none_cfg);
  RankPromotionConfig::ParseLabel(kSelective, &selective_cfg);
  cs->an_none = std::make_unique<AnalyticModel>(community, none_cfg);
  cs->an_selective = std::make_unique<AnalyticModel>(community, selective_cfg);

  Rng ab_rng(seeds[0] ^ 0xab);
  for (size_t i = 0; i < kAbReplicates; ++i) {
    ExperimentOptions ab = LiveOptions(ab_rng());
    ab.split = TrafficSplit::Even(2);
    cs->ab.push_back(std::make_unique<ExperimentManager>(
        SmallCommunity(),
        std::vector<ArmSpec>{{"control", none}, {"treatment", selective}},
        ab));
  }

  // The planted instance: one gentle selective promoter against four arms
  // that randomize too hard and pay for it in clicked quality.
  std::vector<ArmSpec> arms{
      {"planted", MakePolicyFromLabel("selective(r=0.05,k=2)")},
      {"uniform-low", MakePolicyFromLabel("uniform(r=0.15,k=1)")},
      {"uniform-mid", MakePolicyFromLabel("uniform(r=0.35,k=1)")},
      {"ts-promo-hot", MakePolicyFromLabel("ts-promo(a=1.50,b=1.50,c=4.0,k=1)")},
      {"selective-hot", MakePolicyFromLabel("selective(r=0.35,k=1)")}};
  ExperimentOptions bo = LiveOptions(seeds[0] ^ 0xba1);
  bo.split = TrafficSplit::Even(arms.size());
  const size_t arm_count = arms.size();
  cs->bai_exp =
      std::make_unique<ExperimentManager>(SmallCommunity(), std::move(arms), bo);
  bai::TopTwoThompsonOptions so;
  so.min_clicks = 5000;
  so.seed = seeds[0] ^ 0x7707;
  bai::BaiControllerOptions co;
  co.guardrail_floor = 0.25;
  co.guardrail_epochs = 4;
  co.trace = traced ? &cs->bai_trace : nullptr;
  cs->bai = std::make_unique<bai::BaiController>(
      cs->bai_exp.get(), bai::MakeTopTwoThompsonScheduler(arm_count, so), co);
  return cs;
}

struct Job {
  const char* span;
  std::function<void()> run;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Runs `jobs` (already ordered longest first) on `threads` workers,
/// stamping each job's start and end.
void RunJobs(std::vector<Job>* jobs, size_t threads) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t j = next++; j < jobs->size(); j = next++) {
        Job& job = (*jobs)[j];
        job.start_ns = NowNs();
        job.run();
        job.end_ns = NowNs();
      }
    });
  }
  for (std::thread& w : workers) w.join();
}

double MeanOf(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Outputs and per-layer timings of one claim-set run.
struct ClaimResult {
  double reproduce_s = 0.0;
  std::vector<double> nqpc_none, nqpc_selective;
  std::vector<double> sim_none_s, sim_selective_s;
  double meanfield_none = 0.0, meanfield_selective = 0.0;
  double analytic_none = 0.0, analytic_selective = 0.0;
  double meanfield_s = 0.0, analytic_s = 0.0;
  std::vector<std::vector<double>> ab_epoch_ms;  // per A/B job
  std::vector<double> ab_control_qpc, ab_treatment_qpc;  // per replicate
  double lift = 0.0;
  size_t bai_epochs = 0;
  bool bai_stopped = false;
  size_t bai_best = 0;
};

ClaimResult RunClaimSet(ClaimSet& cs, size_t threads, SpanLog::Buffer* spans) {
  ClaimResult r;
  const size_t k = cs.sims_none.size();
  r.nqpc_none.resize(k);
  r.nqpc_selective.resize(k);
  std::vector<Job> jobs;
  for (size_t s = 0; s < k; ++s) {
    jobs.push_back({"sim.run.none", [&cs, &r, s] {
                      r.nqpc_none[s] = cs.sims_none[s]->Run().normalized_qpc;
                    }});
  }
  jobs.push_back({"model.analytic", [&] {
                    r.analytic_selective = cs.an_selective->NormalizedQpc();
                  }});
  for (size_t s = 0; s < k; ++s) {
    jobs.push_back({"sim.run.selective", [&cs, &r, s] {
                      r.nqpc_selective[s] =
                          cs.sims_selective[s]->Run().normalized_qpc;
                    }});
  }
  jobs.push_back({"model.meanfield", [&] {
                    r.meanfield_selective = cs.mf_selective->NormalizedQpc();
                  }});
  jobs.push_back({"model.analytic",
                  [&] { r.analytic_none = cs.an_none->NormalizedQpc(); }});
  jobs.push_back({"model.meanfield",
                  [&] { r.meanfield_none = cs.mf_none->NormalizedQpc(); }});
  jobs.push_back({"bai.run", [&] {
                    r.bai_epochs = cs.bai->Run(kBaiMaxEpochs);
                    r.bai_stopped = cs.bai->stopped();
                    r.bai_best = cs.bai->best();
                  }});
  // The live A/B runs as a stage of its own, after the jobs above: overlapping
  // the simulations' tail made the run's peak memory depend on timing.
  std::vector<Job> ab_jobs;
  r.ab_epoch_ms.resize(kAbJobs);
  r.ab_control_qpc.resize(kAbReplicates);
  r.ab_treatment_qpc.resize(kAbReplicates);
  for (size_t j = 0; j < kAbJobs; ++j) {
    ab_jobs.push_back({"exp.ab", [&cs, &r, j] {
                         for (size_t i = j; i < kAbReplicates; i += kAbJobs) {
                           ExperimentManager& ab = *cs.ab[i];
                           for (size_t e = 0; e < kAbEpochs; ++e) {
                             const uint64_t t0 = NowNs();
                             ab.RunEpoch();
                             r.ab_epoch_ms[j].push_back(
                                 static_cast<double>(NowNs() - t0) * 1e-6);
                           }
                           r.ab_control_qpc[i] = ab.ArmSnapshot(0).click_qpc;
                           r.ab_treatment_qpc[i] = ab.ArmSnapshot(1).click_qpc;
                         }
                       }});
  }

  const uint64_t t0 = NowNs();
  RunJobs(&jobs, threads);
  RunJobs(&ab_jobs, threads);
  const uint64_t t1 = NowNs();
  r.reproduce_s = static_cast<double>(t1 - t0) * 1e-9;
  jobs.insert(jobs.end(), ab_jobs.begin(), ab_jobs.end());
  r.lift = MeanOf(r.ab_treatment_qpc) / MeanOf(r.ab_control_qpc);
  for (size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    const std::string name = job.span;
    if (name == "sim.run.none") r.sim_none_s.push_back(job.seconds());
    if (name == "sim.run.selective") r.sim_selective_s.push_back(job.seconds());
    if (name == "model.meanfield") r.meanfield_s += job.seconds();
    if (name == "model.analytic") r.analytic_s += job.seconds();
    if (spans != nullptr) {
      spans->Add(job.span, "reproduce", j, job.start_ns, job.end_ns);
    }
  }
  if (spans != nullptr) spans->Add("reproduce", "", 0, t0, t1);
  return r;
}

}  // namespace

void RunReproduce(const RunOptions& opts, Report* report) {
  const Sizes sizes = opts.small ? Sizes{2, 300} : Sizes{4, 8000};
  std::vector<uint64_t> seeds;
  Rng rng = Rng::ForStream(opts.seed, 0x5eed);
  for (size_t s = 0; s < sizes.seeds; ++s) seeds.push_back(rng());
  const size_t threads =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);

  // Set-up: construct every model object, several times; the last set is
  // the one run.
  std::vector<double> setup_s;
  std::unique_ptr<ClaimSet> cs;
  for (int i = 0; i < kSetupReps; ++i) {
    cs.reset();
    const uint64_t t0 = NowNs();
    cs = Build(sizes, seeds, false);
    setup_s.push_back(SecondsSince(t0));
  }

  // The traced run first runs the claim set untraced (for the overhead
  // comparison), then again on fresh objects with spans.
  double untraced_s = 0.0;
  if (opts.trace) {
    untraced_s = RunClaimSet(*cs, threads, nullptr).reproduce_s;
    cs = Build(sizes, seeds, true);
  }
  SpanLog spans;
  const ClaimResult r =
      RunClaimSet(*cs, threads, opts.trace ? spans.NewBuffer(64) : nullptr);

  const double sel = MeanOf(r.nqpc_selective);
  const double none = MeanOf(r.nqpc_none);
  report->Attempt(2 * sizes.seeds + 4 + kAbReplicates * kAbEpochs +
                  r.bai_epochs);
  // A small run simulates too few days for the nQPC ordering to be a test.
  for (const std::string& why :
       {opts.small ? std::string() : NqpcVerdict(sel, none),
        BaiVerdict(r.bai_stopped, r.bai_best, kPlantedArm)}) {
    if (!why.empty()) report->Invalidate(why);
  }
  std::cerr << "perfbench reproduce: nqpc sim none=" << none
            << " selective=" << sel << " meanfield none=" << r.meanfield_none
            << " selective=" << r.meanfield_selective
            << " analytic none=" << r.analytic_none
            << " selective=" << r.analytic_selective << " live lift=" << r.lift
            << " bai stopped=" << r.bai_stopped << " best=" << r.bai_best
            << " after " << r.bai_epochs << " epochs\n";

  const double days_per_sim =
      static_cast<double>(kWarmupDays + sizes.measured_days);
  const double sim_days = 2.0 * static_cast<double>(sizes.seeds) * days_per_sim;
  if (!opts.trace) {
    // The unit of work is one simulated day: each simulation job's time per
    // day; the tail is the slowest job, the one the claim set waits for.
    std::vector<double> us_per_day;
    for (const auto* jobs : {&r.sim_none_s, &r.sim_selective_s}) {
      for (const double s : *jobs) us_per_day.push_back(s * 1e6 / days_per_sim);
    }
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("ops_per_s", sim_days / r.reproduce_s, "1/s");
    report->Set("latency_p50_us", Median(us_per_day), "us");
    report->Set("latency_tail_us", Quantile(us_per_day, 1.0), "us");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  double sim_seconds = 0.0;
  for (size_t s = 0; s < sizes.seeds; ++s) {
    sim_seconds += r.sim_none_s[s] + r.sim_selective_s[s];
  }
  report->Set("sim.nqpc.none", none, "ratio");
  report->Set("sim.nqpc.selective", sel, "ratio");
  report->Set("exp.live_qpc_lift", r.lift, "ratio");
  report->Set("sim.run_s.none", Median(r.sim_none_s), "s");
  report->Set("sim.run_s.selective", Median(r.sim_selective_s), "s");
  report->Set("sim.days_per_s", sim_days / sim_seconds, "1/s");
  report->Set("model.meanfield_s", r.meanfield_s, "s");
  report->Set("model.analytic_ms", r.analytic_s * 1e3, "ms");
  std::vector<double> epoch_ms;
  for (const std::vector<double>& job : r.ab_epoch_ms) {
    epoch_ms.insert(epoch_ms.end(), job.begin(), job.end());
  }
  report->Set("exp.epoch_ms_p50", Median(epoch_ms), "ms");
  report->Set("bai.step_us_p50",
              Median(ProgramSpanDurationsUs(cs->bai_trace.Drain(), "bai/decide")),
              "us");
  report->Set("bai.epochs_to_stop", static_cast<double>(r.bai_epochs), "count");
  report->Set("obs.trace_overhead_pct",
              OverheadPct(untraced_s, r.reproduce_s, false), "%");
  const std::string path =
      opts.out_dir + "/trace-reproduce-" + std::to_string(opts.seed) + ".jsonl";
  if (!spans.WriteJsonl(path)) report->Invalidate("cannot write " + path);
}

}  // namespace perfbench
