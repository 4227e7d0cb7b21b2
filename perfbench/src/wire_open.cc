// Workload `wire-open`: socket serving on a small corpus, randrankd's
// production shape. An in-process NetDaemon on loopback serves a
// ShardedRankServer (n=20000, 4 shards, selective(r=0.10,k=2), registry
// attached, tracing off) while a writer thread runs randrankd's publish loop
// every 250 ms (DrainVisits -> FoldVisits -> PageLifecycle churn -> Update).
// One generator (this thread) drives 2 non-blocking connections with
// net/protocol.h frames, m=10, in repetitions of two phases: open-loop
// Poisson arrivals at 50k QPS, then a pipelined closed loop for capacity.
// Open-loop latency runs from each request's due time.
//
// The traced run adds, on the same server and writer, a 1-connection
// closed-loop socket phase, an in-process BatchQueue Submit->callback phase
// and a direct ServeBatch phase, so net self time and queue handoff come
// from differences measured on the same traffic.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <iostream>
#include <memory>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "core/community.h"
#include "core/policy/policy_factory.h"
#include "exp/page_lifecycle.h"
#include "net/daemon.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batch_queue.h"
#include "serve/feedback.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace randrank;

constexpr size_t kPages = 20000;
constexpr size_t kUsers = 1000;
constexpr size_t kShards = 4;
constexpr uint32_t kTopM = 10;
constexpr double kOpenQps = 50000.0;
constexpr uint64_t kEpochNs = 250'000'000;
constexpr size_t kConns = 2;
/// Length of one open-loop / capacity window; each metric is the median
/// over the run's windows of that window's statistic.
constexpr double kPhaseSeconds = 0.2;
/// Queries each connection keeps in flight in the capacity phase.
constexpr size_t kWindow = 32;
constexpr int kSetupReps = 31;
/// An open-loop window whose generator lag p99 exceeds this is dropped
/// from the latency medians (it did not offer the scheduled load).
constexpr double kMaxGeneratorLagUs = 200.0;
/// Traced repetitions record the spans of one request in this many.
constexpr uint64_t kSpanEvery = 16;
/// Warm-up queries per set-up, pipelined, before any timing.
constexpr size_t kWarmupQueries = 2000;
/// A request not answered this long after the end of its phase failed.
constexpr uint64_t kReplyTimeoutNs = 5'000'000'000;
constexpr const char* kPolicy = "selective(r=0.10,k=2)";

/// Everything drawn from the workload seed before timing starts.
struct Inputs {
  /// Per repetition: arrival offsets (ns from phase start), Poisson.
  std::vector<std::vector<uint64_t>> due;
  /// User ids, consumed round-robin by every phase.
  std::vector<uint64_t> users;
  /// Page deaths per writer epoch (cycled if the run outlasts them).
  std::vector<std::vector<uint32_t>> deaths;
};

std::vector<uint64_t> PoissonArrivals(double qps, double seconds, Rng& rng) {
  std::vector<uint64_t> due;
  due.reserve(static_cast<size_t>(qps * seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += rng.NextExponential(qps);
    if (t >= seconds) break;
    due.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return due;
}

CommunityParams Community() {
  CommunityParams c = CommunityParams::Default();
  c.n = kPages;
  c.u = kUsers;
  return c;
}

/// One client connection: non-blocking socket, outbound buffer, inbound
/// reassembly buffer, and the per-connection reply checks.
struct Conn {
  int fd = -1;
  std::vector<uint8_t> out;
  size_t out_pos = 0;
  std::vector<uint8_t> in;
  ReplyChecker checker{kPages, kTopM};

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

bool Connect(uint16_t port, Conn* conn) {
  conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (conn->fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return false;
  }
  const int one = 1;
  ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK) ==
         0;
}

/// Writes as much buffered output as the socket takes. False on a socket
/// error.
bool Flush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t w = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (w > 0) {
      c.out_pos += static_cast<size_t>(w);
    } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  c.out.clear();
  c.out_pos = 0;
  return true;
}

/// Reads whatever is available and hands every complete frame to
/// `on_frame(header, payload, len, recv_ns)`. False on a socket error or a
/// malformed header (the stream cannot be resynced).
template <typename OnFrame>
bool Pump(Conn& c, OnFrame&& on_frame) {
  uint8_t buf[1 << 16];
  bool got = false;
  while (true) {
    const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
    if (r > 0) {
      c.in.insert(c.in.end(), buf, buf + r);
      got = true;
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // EOF or error
  }
  if (!got) return true;
  const uint64_t recv_ns = NowNs();
  size_t pos = 0;
  while (c.in.size() - pos >= net::kHeaderSize) {
    net::FrameHeader header;
    if (net::DecodeHeader(c.in.data() + pos, c.in.size() - pos, &header) !=
        net::DecodeStatus::kOk) {
      return false;
    }
    if (c.in.size() - pos < net::kHeaderSize + header.payload_len) break;
    on_frame(header, c.in.data() + pos + net::kHeaderSize, header.payload_len,
             recv_ns);
    pos += net::kHeaderSize + header.payload_len;
  }
  c.in.erase(c.in.begin(), c.in.begin() + static_cast<ptrdiff_t>(pos));
  return true;
}

/// Per-request bookkeeping of one phase: which connection carries each
/// request and whether it was answered. Request ids are `base + index`.
class RequestTable {
 public:
  RequestTable(uint64_t base, size_t capacity)
      : base_(base), conn_(capacity, 0xff), answered_(capacity, 0) {}

  uint64_t base() const { return base_; }
  void Sent(size_t index, size_t conn) {
    conn_[index] = static_cast<uint8_t>(conn);
    ++outstanding_;
  }
  bool Outstanding(uint64_t id, size_t conn) const {
    if (id < base_ || id - base_ >= conn_.size()) return false;
    const size_t i = id - base_;
    return conn_[i] == conn && answered_[i] == 0;
  }
  void Answer(uint64_t id) {
    answered_[id - base_] = 1;
    --outstanding_;
  }
  size_t outstanding() const { return outstanding_; }

 private:
  uint64_t base_;
  std::vector<uint8_t> conn_;
  std::vector<uint8_t> answered_;
  size_t outstanding_ = 0;
};

/// One served system: page state, server, daemon, and the generator's
/// connections.
struct System {
  obs::MetricsRegistry registry;
  obs::TraceLog program_trace{[] {
    obs::TraceOptions t;
    t.sample_every = 0;  // publish-phase spans only, no per-query spans
    return t;
  }()};
  ServingPageState state;
  std::unique_ptr<ShardedRankServer> server;
  std::unique_ptr<net::NetDaemon> daemon;
  Conn conns[kConns];
};

struct PhaseStats {
  std::vector<double> latency_us;  // per answered request
  std::vector<double> lag_us;      // per sent request (open loop only)
  uint64_t replies_in_window = 0;  // closed loop only
  double window_s = 0.0;
};

class WireOpen {
 public:
  WireOpen(const RunOptions& opts, Report* report)
      : opts_(opts), report_(report) {}
  ~WireOpen() { StopWriter(); }
  WireOpen(const WireOpen&) = delete;
  WireOpen& operator=(const WireOpen&) = delete;

  void Run();

 private:
  void DrawInputs(size_t reps, double phase_s);
  std::unique_ptr<System> SetUp(bool traced);
  /// Runs one phase's request loop. Open loop when `due` is non-null (send
  /// each request at its due time); otherwise a closed loop keeping kWindow
  /// requests in flight per connection for `closed_s` seconds.
  PhaseStats RunPhase(const std::vector<uint64_t>* due, double closed_s,
                      SpanLog::Buffer* spans);
  void StartWriter();
  void StopWriter();
  void WriterLoop();
  /// Closed-loop layer phases of the traced run (socket / queue / direct).
  void RunLayerPhases(double seconds, std::vector<double>* net_rtt,
                      std::vector<double>* queue_rtt,
                      std::vector<double>* serve_one,
                      std::vector<double>* serve_batch,
                      SpanLog::Buffer* spans);
  uint64_t NextUser() { return in_.users[user_pos_++ % in_.users.size()]; }

  const RunOptions& opts_;
  Report* report_;
  Inputs in_;
  std::unique_ptr<System> sys_;
  size_t user_pos_ = 0;
  uint64_t next_id_ = 1;

  // Writer thread state.
  std::atomic<bool> stop_writer_{false};
  std::atomic<uint64_t> publish_failures_{0};
  Rng fold_rng_{0};
  size_t writer_epochs_ = 0;
  std::vector<double> drain_ms_, fold_ms_, churn_ms_, update_ms_;
  uint64_t visits_total_ = 0;
  uint64_t deaths_total_ = 0;
  SpanLog::Buffer* writer_spans_ = nullptr;
  std::thread writer_;  // last: runs WriterLoop over the members above
};

void WireOpen::DrawInputs(size_t reps, double phase_s) {
  Rng rng = Rng::ForStream(opts_.seed, 0x31e0);
  for (size_t r = 0; r < reps; ++r) {
    in_.due.push_back(PoissonArrivals(kOpenQps, phase_s, rng));
  }
  in_.users.resize(1 << 16);
  for (uint64_t& u : in_.users) u = rng.NextIndex(kUsers);
  // Deaths for every writer epoch of a run stretched to twice --seconds.
  const PageLifecycle lifecycle(Community(), 1.0);
  const size_t epochs = static_cast<size_t>(2.0 * opts_.seconds * 1e9 /
                                            static_cast<double>(kEpochNs)) +
                        8;
  for (size_t e = 0; e < epochs; ++e) {
    in_.deaths.push_back(lifecycle.DrawDeaths(rng));
  }
}

std::unique_ptr<System> WireOpen::SetUp(bool traced) {
  auto sys = std::make_unique<System>();
  Rng rng = Rng::ForStream(opts_.seed, 0x5e70);
  sys->state = MakeServingPageState(Community(), rng);
  ServeOptions sopts;
  sopts.shards = kShards;
  sopts.seed = opts_.seed + 1;
  sopts.metrics = &sys->registry;
  sopts.trace = traced ? &sys->program_trace : nullptr;
  sys->server = std::make_unique<ShardedRankServer>(MakePolicyFromLabel(kPolicy),
                                                    kPages, sopts);
  if (!sys->server->Update(sys->state.popularity, sys->state.zero_awareness,
                           sys->state.birth_step)) {
    report_->Fail("initial publish rolled back");
  }
  net::NetDaemonOptions nopts;
  nopts.metrics = &sys->registry;
  sys->daemon = std::make_unique<net::NetDaemon>(*sys->server, nopts);
  sys->daemon->Start();
  for (Conn& c : sys->conns) {
    if (!Connect(sys->daemon->port(), &c)) {
      throw std::runtime_error("wire-open: cannot connect to the daemon");
    }
  }
  return sys;
}

PhaseStats WireOpen::RunPhase(const std::vector<uint64_t>* due,
                              double closed_s, SpanLog::Buffer* spans) {
  System& sys = *sys_;
  PhaseStats st;
  const bool open = due != nullptr;
  const size_t capacity =
      open ? due->size()
           : static_cast<size_t>(closed_s * 1e6) + kConns * kWindow + 16;
  RequestTable table(next_id_, capacity);
  next_id_ += capacity;
  std::vector<uint64_t> start_ns(capacity, 0);
  if (open) st.lag_us.reserve(capacity);
  st.latency_us.reserve(open ? capacity : 1 << 16);

  // Open loop: a 1 ms lead so the first arrivals are not already late.
  const uint64_t t0 = NowNs() + (open ? 1'000'000 : 0);
  const uint64_t window_end =
      open ? t0 + (due->empty() ? 0 : due->back())
           : t0 + static_cast<uint64_t>(closed_s * 1e9);
  const uint64_t give_up = window_end + kReplyTimeoutNs;
  size_t next = 0;
  bool broken = false;

  auto send = [&](size_t index, size_t conn, uint64_t now) {
    net::QueryFrame q;
    q.request_id = table.base() + index;
    q.user_id = NextUser();
    q.m = kTopM;
    net::AppendQuery(q, &sys.conns[conn].out);
    table.Sent(index, conn);
    start_ns[index] = open ? t0 + (*due)[index] : now;
    report_->Attempt();
  };

  if (!open) {
    for (size_t c = 0; c < kConns; ++c) {
      for (size_t w = 0; w < kWindow; ++w) send(next++, c, t0);
    }
  }

  while (!broken) {
    const uint64_t now = NowNs();
    if (open) {
      while (next < capacity && t0 + (*due)[next] <= now) {
        st.lag_us.push_back(static_cast<double>(now - (t0 + (*due)[next])) *
                            1e-3);
        send(next, next % kConns, now);
        ++next;
      }
    }
    for (size_t c = 0; c < kConns && !broken; ++c) {
      Conn& conn = sys.conns[c];
      if (!Flush(conn)) {
        report_->Fail("socket write failed");
        broken = true;
        break;
      }
      const bool ok = Pump(conn, [&](const net::FrameHeader& h,
                                     const uint8_t* payload, size_t len,
                                     uint64_t recv_ns) {
        uint64_t id = 0;
        const std::string why = conn.checker.Check(
            h, payload, len,
            [&](uint64_t rid) { return table.Outstanding(rid, c); }, &id);
        const bool known = table.Outstanding(id, c);
        if (known) table.Answer(id);
        if (!why.empty()) {
          report_->Fail(why);
          return;
        }
        const size_t index = id - table.base();
        st.latency_us.push_back(
            static_cast<double>(recv_ns - start_ns[index]) * 1e-3);
        if (spans != nullptr && id % kSpanEvery == 0) {
          spans->Add("wire.request", "", id, start_ns[index], recv_ns);
        }
        if (!open) {
          if (recv_ns <= window_end) ++st.replies_in_window;
          if (recv_ns < window_end && next < capacity) {
            send(next++, c, recv_ns);
          }
        }
      });
      if (!ok) {
        report_->Fail("socket read failed or malformed frame");
        broken = true;
      }
    }
    const bool all_sent = open ? next == capacity : now >= window_end;
    if (all_sent && table.outstanding() == 0) break;
    if (now > give_up) break;
  }
  if (table.outstanding() > 0) {
    report_->Fail("no reply within the timeout", table.outstanding());
  }
  st.window_s = static_cast<double>(window_end - t0) * 1e-9;
  return st;
}

void WireOpen::StartWriter() {
  stop_writer_.store(false);
  writer_ = std::thread([this] { WriterLoop(); });
}

void WireOpen::StopWriter() {
  stop_writer_.store(true);
  if (writer_.joinable()) writer_.join();
}

void WireOpen::WriterLoop() {
  System& sys = *sys_;
  uint64_t next = NowNs() + kEpochNs;
  while (true) {
    while (!stop_writer_.load() && NowNs() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (stop_writer_.load()) return;
    const std::vector<uint32_t>& deaths =
        in_.deaths[writer_epochs_ % in_.deaths.size()];
    const uint64_t t0 = NowNs();
    const std::vector<uint64_t> visits = sys.server->DrainVisits();
    const uint64_t t1 = NowNs();
    FoldVisits(visits, &sys.state, fold_rng_);
    const uint64_t t2 = NowNs();
    PageLifecycle::ApplyDeaths(deaths,
                               static_cast<int64_t>(sys.server->epoch() + 1),
                               &sys.state);
    const uint64_t t3 = NowNs();
    if (!sys.server->Update(sys.state.popularity, sys.state.zero_awareness,
                            sys.state.birth_step)) {
      publish_failures_.fetch_add(1);
    }
    const uint64_t t4 = NowNs();
    drain_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6);
    fold_ms_.push_back(static_cast<double>(t2 - t1) * 1e-6);
    churn_ms_.push_back(static_cast<double>(t3 - t2) * 1e-6);
    update_ms_.push_back(static_cast<double>(t4 - t3) * 1e-6);
    for (const uint64_t v : visits) visits_total_ += v;
    deaths_total_ += deaths.size();
    ++writer_epochs_;
    if (writer_spans_ != nullptr) {
      const uint64_t e = writer_epochs_;
      writer_spans_->Add("feedback.drain", "writer.epoch", e, t0, t1);
      writer_spans_->Add("feedback.fold", "writer.epoch", e, t1, t2);
      writer_spans_->Add("exp.churn", "writer.epoch", e, t2, t3);
      writer_spans_->Add("serve.update", "writer.epoch", e, t3, t4);
      writer_spans_->Add("writer.epoch", "", e, t0, t4);
    }
    next += kEpochNs;
  }
}

void WireOpen::RunLayerPhases(double seconds, std::vector<double>* net_rtt,
                              std::vector<double>* queue_rtt,
                              std::vector<double>* serve_one,
                              std::vector<double>* serve_batch,
                              SpanLog::Buffer* spans) {
  System& sys = *sys_;
  ListChecker lists(kPages, kTopM);
  BatchQueue queue(*sys.server);
  ShardedRankServer::Context ctx = sys.server->CreateContext();
  QueryBatch one(kTopM, 1);
  QueryBatch sixteen(kTopM, 16);
  const int rounds = 3;
  const uint64_t slice_ns =
      static_cast<uint64_t>(seconds / (3.0 * rounds) * 1e9);
  Conn& conn = sys.conns[0];

  for (int round = 0; round < rounds; ++round) {
    // net: one connection, one request in flight.
    uint64_t end = NowNs() + slice_ns;
    while (NowNs() < end) {
      const uint64_t id = next_id_++;
      net::QueryFrame q;
      q.request_id = id;
      q.user_id = NextUser();
      q.m = kTopM;
      net::AppendQuery(q, &conn.out);
      report_->Attempt();
      const uint64_t t0 = NowNs();
      bool answered = false;
      while (!answered) {
        const bool ok =
            Flush(conn) &&
            Pump(conn, [&](const net::FrameHeader& h, const uint8_t* payload,
                           size_t len, uint64_t recv_ns) {
              uint64_t rid = 0;
              const std::string why = conn.checker.Check(
                  h, payload, len, [&](uint64_t r) { return r == id; }, &rid);
              answered = true;
              if (!why.empty()) {
                report_->Fail(why);
                return;
              }
              net_rtt->push_back(static_cast<double>(recv_ns - t0) * 1e-3);
              if (id % kSpanEvery == 0) spans->Add("net.rtt", "", id, t0, recv_ns);
            });
        if (!ok || NowNs() - t0 > kReplyTimeoutNs) {
          report_->Fail("closed-loop socket query got no reply");
          return;
        }
      }
    }
    // batch_queue: in-process Submit -> callback, one in flight.
    end = NowNs() + slice_ns;
    std::atomic<bool> done{false};
    std::vector<uint32_t> result;
    QueryOutcome outcome = QueryOutcome::kServed;
    while (NowNs() < end) {
      const uint64_t id = next_id_++;
      done.store(false, std::memory_order_relaxed);
      report_->Attempt();
      const uint64_t t0 = NowNs();
      queue.Submit(kTopM, [&](QueryOutcome o, std::vector<uint32_t> pages) {
        outcome = o;
        result = std::move(pages);
        done.store(true, std::memory_order_release);
      });
      while (!done.load(std::memory_order_acquire)) {
      }
      const uint64_t t1 = NowNs();
      const std::string why = outcome == QueryOutcome::kServed
                                  ? lists.Check(result)
                                  : "queue deadline expired";
      if (!why.empty()) {
        report_->Fail(why);
        continue;
      }
      queue_rtt->push_back(static_cast<double>(t1 - t0) * 1e-3);
      if (id % kSpanEvery == 0) spans->Add("batch_queue.rtt", "", id, t0, t1);
    }
    // serve: direct ServeBatch, one query and sixteen per pin.
    end = NowNs() + slice_ns;
    while (NowNs() < end) {
      const uint64_t id = next_id_++;
      uint64_t t0 = NowNs();
      sys.server->ServeBatch(ctx, &one);
      uint64_t t1 = NowNs();
      serve_one->push_back(static_cast<double>(t1 - t0) * 1e-3);
      if (id % kSpanEvery == 0) spans->Add("serve.batch1", "", id, t0, t1);
      t0 = NowNs();
      sys.server->ServeBatch(ctx, &sixteen);
      t1 = NowNs();
      serve_batch->push_back(static_cast<double>(t1 - t0) * 1e-3);
      if (id % kSpanEvery == 0) spans->Add("serve.batch16", "", id, t0, t1);
      report_->Attempt(17);
      for (const auto* batch : {&one, &sixteen}) {
        for (const std::vector<uint32_t>& list : batch->results) {
          const std::string why = lists.Check(list);
          if (!why.empty()) report_->Fail(why);
        }
      }
    }
  }
  queue.Stop();
}

void WireOpen::Run() {
  // Repetitions of (open loop, capacity) phases; the traced run spends 80%
  // of its time on them, alternating untraced and traced repetitions, and
  // 20% in the layer phases.
  const double measured_s = opts_.trace ? opts_.seconds * 0.8 : opts_.seconds;
  // Short phases, interleaved, so that every metric samples the same
  // conditions over the whole run, and medians over many windows shrug off
  // the odd scheduling stall.
  const double phase_s = opts_.small ? 0.1 : kPhaseSeconds;
  const size_t reps =
      std::max<size_t>(1, static_cast<size_t>(measured_s / (2.0 * phase_s)));
  // Arrival sets for up to twice the planned windows.
  const size_t sets = 2 * reps;
  DrawInputs(sets, phase_s);
  fold_rng_ = Rng::ForStream(opts_.seed, 0xf01d);

  // Set-up: community build, first publish, daemon start, connections and
  // pipelined warm-up, several times; the last system is kept.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    sys_.reset();
    const uint64_t t0 = NowNs();
    sys_ = SetUp(opts_.trace);
    // A zero-length closed-loop window sends one full window and drains it.
    for (size_t q = 0; q < kWarmupQueries; q += kConns * kWindow) {
      RunPhase(nullptr, 0.0, nullptr);
    }
    setup_s.push_back(SecondsSince(t0));
  }

  // A window during which the host stole CPU time from this machine
  // (/proc/stat steal ticks) measures the neighbours, not the code, and one
  // in which the generator sent late does not hold the offered rate: either
  // is dropped, and the pass runs on -- up to twice its budget -- until every
  // phase has `reps` clean windows. A phase left with none falls back to all
  // of its windows.
  struct Pass {
    WindowValues p50, p99;
    WindowValues capacity, capacity_traced;
    std::vector<double> lag_p99;  // per open-loop window
  };
  // With `spans`, odd repetitions are traced (and their capacity windows
  // kept apart for the overhead comparison).
  auto run_pass = [&](SpanLog::Buffer* spans) {
    Pass pass;
    const uint64_t give_up =
        NowNs() + static_cast<uint64_t>(2.0 * measured_s * 1e9);
    size_t windows = 0;
    for (size_t r = 0; NowNs() < give_up; ++r) {
      if (pass.p50.clean() >= reps &&
          pass.capacity.clean() + pass.capacity_traced.clean() >= reps) {
        break;
      }
      const size_t set = r % sets;
      const bool traced = spans != nullptr && r % 2 == 1;
      SpanLog::Buffer* rep_spans = traced ? spans : nullptr;
      uint64_t steal = StealTicks();
      const PhaseStats open = RunPhase(&in_.due[set], 0.0, rep_spans);
      uint64_t after = StealTicks();
      const bool clean = after == steal &&
                         Quantile(open.lag_us, 0.99) <= kMaxGeneratorLagUs;
      pass.p50.Add(Quantile(open.latency_us, 0.50), clean);
      pass.p99.Add(Quantile(open.latency_us, 0.99), clean);
      steal = after;
      const PhaseStats cap = RunPhase(nullptr, phase_s, rep_spans);
      after = StealTicks();
      (traced ? pass.capacity_traced : pass.capacity).Add(
          static_cast<double>(cap.replies_in_window) / cap.window_s,
          after == steal);
      pass.lag_p99.push_back(Quantile(open.lag_us, 0.99));
      windows += 2;
    }
    const size_t clean = pass.p50.clean() + pass.capacity.clean() +
                         pass.capacity_traced.clean();
    std::cerr << "wire-open: " << clean << " of " << windows << " windows of "
              << phase_s << " s clean; p50/p99 " << pass.p50.Value() << "/"
              << pass.p99.Value() << " us, capacity " << pass.capacity.Value()
              << "/s, generator lag p99 " << Median(pass.lag_p99)
              << " us\n";
    return pass;
  };

  SpanLog spans;
  writer_spans_ = opts_.trace ? spans.NewBuffer(1 << 12) : nullptr;
  StartWriter();
  obs::MetricsRegistry& reg = sys_->registry;
  const obs::HistogramSnapshot wait_before =
      reg.GetHistogram("queue/wait_ns").Snapshot();
  const uint64_t queries_before = reg.GetCounter("queue/queries_total").Value();
  const uint64_t batches_before = reg.GetCounter("queue/batches_total").Value();
  const Pass pass =
      run_pass(opts_.trace ? spans.NewBuffer(1 << 20) : nullptr);
  const obs::HistogramSnapshot wait =
      reg.GetHistogram("queue/wait_ns").Snapshot().Delta(wait_before);
  const uint64_t queue_queries =
      reg.GetCounter("queue/queries_total").Value() - queries_before;
  const uint64_t queue_batches =
      reg.GetCounter("queue/batches_total").Value() - batches_before;
  std::vector<double> net_rtt, queue_rtt, serve_one, serve_batch;
  if (opts_.trace) {
    RunLayerPhases(opts_.seconds * 0.2, &net_rtt, &queue_rtt, &serve_one,
                   &serve_batch, spans.NewBuffer(1 << 20));
  }
  StopWriter();
  report_->Attempt(writer_epochs_);
  if (publish_failures_.load() > 0) {
    report_->Fail("publish rolled back", publish_failures_.load());
  }

  const net::NetDaemonStats stats = sys_->daemon->stats();
  for (Conn& c : sys_->conns) {
    ::close(c.fd);
    c.fd = -1;
  }
  if (!sys_->daemon->Drain()) report_->Fail("daemon drain was forced");

  if (!opts_.trace) {
    report_->Set("setup_s", Median(setup_s), "s");
    report_->Set("ops_per_s", pass.capacity.Value(), "1/s");
    report_->Set("latency_p50_us", pass.p50.Value(), "us");
    report_->Set("latency_tail_us", pass.p99.Value(), "us");
    report_->Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const double net_p50 = Median(net_rtt);
    const double queue_p50 = Median(queue_rtt);
    report_->Set("net.rtt_us_p50", net_p50, "us");
    report_->Set("net.rtt_us_p99", Quantile(net_rtt, 0.99), "us");
    report_->Set("net.self_us_p50", net_p50 - queue_p50, "us");
    const double queries = static_cast<double>(std::max<uint64_t>(1, stats.queries));
    report_->Set("net.bytes_per_query",
                 static_cast<double>(stats.bytes_read + stats.bytes_written) /
                     queries,
                 "B");
    report_->Set("net.replies_per_query",
                 static_cast<double>(stats.replies) / queries, "ratio");
    report_->Set("net.shed_overloaded",
                 static_cast<double>(stats.shed_overloaded), "count");
    report_->Set("net.deadline_exceeded",
                 static_cast<double>(stats.deadline_exceeded), "count");
    report_->Set("net.bad_frames", static_cast<double>(stats.bad_frames),
                 "count");
    report_->Set("batch_queue.rtt_us_p50", queue_p50, "us");
    report_->Set("batch_queue.rtt_us_p99", Quantile(queue_rtt, 0.99), "us");
    report_->Set("batch_queue.handoff_us_p50", queue_p50 - Median(serve_one),
                 "us");
    report_->Set("batch_queue.mean_batch",
                 queue_batches > 0 ? static_cast<double>(queue_queries) /
                                         static_cast<double>(queue_batches)
                                   : 0.0,
                 "count");
    report_->Set("batch_queue.wait_us_p50", wait.Quantile(0.50) * 1e-3, "us");
    report_->Set("batch_queue.wait_us_p99", wait.Quantile(0.99) * 1e-3, "us");
    report_->Set("batch_queue.max_depth",
                 reg.GetGauge("queue/max_depth").Value(), "count");
    report_->Set(
        "batch_queue.deadline_expired",
        static_cast<double>(reg.GetCounter("queue/deadline_expired").Value()),
        "count");
    report_->Set("serve.batch_us_p50", Median(serve_batch), "us");
    report_->Set("serve.batch_us_p99", Quantile(serve_batch, 0.99), "us");
    report_->Set("serve.ns_per_query", Median(serve_batch) * 1e3 / 16.0, "ns");
    report_->Set("serve.cache_active",
                 sys_->server->PrefixCacheActive() ? 1.0 : 0.0, "bool");
    report_->Set("serve.update_ms_p50.promotion", Median(update_ms_), "ms");
    report_->Set("serve.update_ms_p90.promotion", Quantile(update_ms_, 0.9),
                 "ms");
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
    const double epochs = static_cast<double>(std::max<size_t>(1, writer_epochs_));
    report_->Set("feedback.drain_ms_p50", Median(drain_ms_), "ms");
    report_->Set("feedback.fold_ms_p50", Median(fold_ms_), "ms");
    report_->Set("feedback.visits_per_epoch",
                 static_cast<double>(visits_total_) / epochs, "count");
    report_->Set("exp.churn_ms_p50", Median(churn_ms_), "ms");
    report_->Set("exp.deaths_per_epoch",
                 static_cast<double>(deaths_total_) / epochs, "count");
    report_->Set("obs.trace_overhead_pct",
                 OverheadPct(pass.capacity.Value(),
                             pass.capacity_traced.Value(), true),
                 "%");
    report_->Set("gen.lag_us_p99", Median(pass.lag_p99), "us");
    const std::string path =
        opts_.out_dir + "/trace-wire-open-" + std::to_string(opts_.seed) +
        ".jsonl";
    if (!spans.WriteJsonl(path)) report_->Invalidate("cannot write " + path);
  }
  sys_.reset();
}

}  // namespace

void RunWireOpen(const RunOptions& opts, Report* report) {
  WireOpen(opts, report).Run();
}

}  // namespace perfbench
