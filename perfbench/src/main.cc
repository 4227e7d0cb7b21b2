// perfbench: the repo benchmark's measuring program (see ../README.md).
//
//   perfbench --workload wire-open|publish-1m|reproduce --seed N
//             --seconds S --trace 0|1 [--small] [--out-dir DIR]
//   perfbench --self-check
//
// Prints progress on stderr and, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics when
// untraced, per-layer metrics when traced. A traced run ends with a layer
// sweep: the other two workloads, traced at --small size, fill in the
// per-layer metrics of layers the chosen workload does not reach, so every
// traced run reports every layer. --self-check plants one defect per
// output-correctness check and exits nonzero unless every check fires on
// its defect and passes the intact case.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>

#include "bench.h"
#include "checks.h"
#include "net/protocol.h"

namespace {

using namespace perfbench;
namespace net = randrank::net;

int Usage() {
  std::cerr << "usage: perfbench --workload wire-open|publish-1m|reproduce "
               "--seed N --seconds S --trace 0|1 [--small] [--out-dir DIR]\n"
               "       perfbench --self-check\n";
  return 2;
}

/// Encodes `reply` and runs it through a fresh connection checker that has
/// `outstanding` as its only unanswered request id (after `prior_epoch` was
/// seen on the connection). Returns the checker's verdict.
std::string CheckWireReply(const net::QueryReplyFrame& reply,
                           uint64_t outstanding, uint64_t prior_epoch,
                           bool corrupt_magic = false) {
  ReplyChecker checker(100, 3);
  if (prior_epoch > 0) {
    net::QueryReplyFrame earlier{outstanding + 1, prior_epoch, {7, 8, 9}};
    std::vector<uint8_t> bytes;
    net::AppendQueryReply(earlier, &bytes);
    net::FrameHeader h;
    net::DecodeHeader(bytes.data(), bytes.size(), &h);
    uint64_t id = 0;
    const std::string why = checker.Check(
        h, bytes.data() + net::kHeaderSize, h.payload_len,
        [&](uint64_t) { return true; }, &id);
    if (!why.empty()) return "setup reply rejected: " + why;
  }
  std::vector<uint8_t> bytes;
  net::AppendQueryReply(reply, &bytes);
  if (corrupt_magic) bytes[4] ^= 0xff;
  net::FrameHeader h;
  if (net::DecodeHeader(bytes.data(), bytes.size(), &h) !=
      net::DecodeStatus::kOk) {
    return "malformed header";
  }
  uint64_t id = 0;
  return checker.Check(h, bytes.data() + net::kHeaderSize, h.payload_len,
                       [&](uint64_t rid) { return rid == outstanding; }, &id);
}

int SelfCheck() {
  int bad = 0;
  auto expect = [&](const char* what, const std::string& why, bool fire) {
    const bool fired = !why.empty();
    std::cout << (fired == fire ? "ok   " : "FAIL ") << what << ": "
              << (fired ? why : "passes") << "\n";
    if (fired != fire) ++bad;
  };
  const net::QueryReplyFrame good{42, 5, {3, 1, 4}};

  // Wire replies (n=100, m=3).
  expect("intact reply", CheckWireReply(good, 42, 0), false);
  expect("intact reply after an older epoch", CheckWireReply(good, 42, 4),
         false);
  net::QueryReplyFrame wrong_id = good;
  wrong_id.request_id = 43;
  expect("corrupted reply id", CheckWireReply(wrong_id, 42, 0), true);
  net::QueryReplyFrame dup = good;
  dup.pages = {3, 1, 3};
  expect("duplicate page in a reply", CheckWireReply(dup, 42, 0), true);
  net::QueryReplyFrame out_of_range = good;
  out_of_range.pages = {3, 1, 100};
  expect("page id >= n", CheckWireReply(out_of_range, 42, 0), true);
  net::QueryReplyFrame short_list = good;
  short_list.pages = {3, 1};
  expect("short result list", CheckWireReply(short_list, 42, 0), true);
  expect("epoch going back", CheckWireReply(good, 42, 6), true);
  expect("corrupted frame magic", CheckWireReply(good, 42, 0, true), true);
  {
    std::vector<uint8_t> bytes;
    net::AppendError({42, net::ErrorCode::kOverloaded, "shed"}, &bytes);
    net::FrameHeader h;
    net::DecodeHeader(bytes.data(), bytes.size(), &h);
    ReplyChecker checker(100, 3);
    uint64_t id = 0;
    expect("ERROR reply",
           checker.Check(h, bytes.data() + net::kHeaderSize, h.payload_len,
                         [](uint64_t) { return true; }, &id),
           true);
  }

  // In-process result lists (ServeBatch / BatchQueue).
  ListChecker lists(100, 3);
  expect("intact list", lists.Check(std::vector<uint32_t>{5, 6, 7}), false);
  expect("duplicate page in a list",
         lists.Check(std::vector<uint32_t>{5, 6, 5}), true);
  expect("intact list after a rejected one",
         lists.Check(std::vector<uint32_t>{5, 6, 7}), false);
  ListChecker tiny(2, 3);  // m > n: min(m, n) ids expected
  expect("list of min(m, n) ids", tiny.Check(std::vector<uint32_t>{1, 0}),
         false);
  expect("list longer than n", tiny.Check(std::vector<uint32_t>{1, 0, 1}),
         true);

  // The reproduction's claims.
  expect("selective above none", NqpcVerdict(0.8, 0.4), false);
  expect("selective not above none", NqpcVerdict(0.4, 0.4), true);
  expect("adaptive run stopped on the planted arm", BaiVerdict(true, 0, 0),
         false);
  expect("adaptive run never stopped", BaiVerdict(false, 0, 0), true);
  expect("adaptive run stopped on the wrong arm", BaiVerdict(true, 2, 0),
         true);

  std::cout << (bad == 0 ? "self-check passed\n" : "self-check FAILED\n");
  return bad == 0 ? 0 : 1;
}

using Workload = void (*)(const RunOptions&, Report*);

constexpr std::pair<const char*, Workload> kWorkloads[] = {
    {"wire-open", RunWireOpen},
    {"publish-1m", RunPublish1m},
    {"reproduce", RunReproduce},
};

/// Length of each small traced run of the layer sweep.
constexpr double kSweepSeconds = 2.0;

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "perfbench: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--self-check") {
      return SelfCheck();
    } else if (arg == "--workload") {
      opts.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value() != "0";
    } else if (arg == "--small") {
      opts.small = true;
    } else if (arg == "--out-dir") {
      opts.out_dir = value();
    } else {
      return Usage();
    }
  }
  if (!have_workload || opts.seconds <= 0.0) return Usage();

  Workload run = nullptr;
  for (const auto& [name, fn] : kWorkloads) {
    if (opts.workload == name) run = fn;
  }
  if (run == nullptr) {
    std::cerr << "perfbench: unknown workload " << opts.workload << "\n";
    return 2;
  }
  Report report;
  try {
    run(opts, &report);
    if (opts.trace) {
      for (const auto& [name, fn] : kWorkloads) {
        if (fn == run) continue;
        RunOptions sweep = opts;
        sweep.workload = name;
        sweep.small = true;
        sweep.seconds = kSweepSeconds;
        Report side;
        fn(sweep, &side);
        report.Absorb(side);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cout << report.Json() << std::endl;
  return 0;
}
