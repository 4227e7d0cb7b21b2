// Output-correctness checks of the repo benchmark. Every served list, every
// wire reply and the reproduction's claims pass through these; main.cc's
// --self-check plants one defect per check and requires it to fire.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace perfbench {

/// Checks one served result list: exactly min(m, n) ids, each below n, no
/// id twice. Reusable across lists (a generation-stamped seen-set of size
/// n, so a check is O(m) with no clearing).
class ListChecker {
 public:
  ListChecker(size_t n, size_t m) : n_(n), m_(m), stamp_(n, 0) {}

  /// Empty when the list is valid, else the reason.
  std::string Check(const uint32_t* pages, size_t count);
  std::string Check(const std::vector<uint32_t>& pages) {
    return Check(pages.data(), pages.size());
  }

 private:
  size_t n_;
  size_t m_;
  std::vector<uint32_t> stamp_;
  uint32_t generation_ = 0;
};

/// Checks the replies of one connection: each frame decodes as a
/// QUERY_REPLY, echoes a request id this connection has outstanding, holds a
/// valid result list, and carries an epoch no older than the connection's
/// previous reply (replies on a connection are served in submission order).
class ReplyChecker {
 public:
  ReplyChecker(size_t n, size_t m) : lists_(n, m) {}

  /// `header`/`payload` are one complete frame; `outstanding(id)` reports
  /// whether `id` was sent on this connection and is still unanswered.
  /// Returns empty when valid, else the reason; `*request_id` receives the
  /// echoed id whenever the payload decoded far enough to carry one.
  template <typename Outstanding>
  std::string Check(const randrank::net::FrameHeader& header,
                    const uint8_t* payload, size_t len,
                    Outstanding&& outstanding, uint64_t* request_id);

 private:
  std::string CheckReply(const randrank::net::QueryReplyFrame& reply);

  ListChecker lists_;
  uint64_t last_epoch_ = 0;
};

/// The reproduction's claims, each empty when it holds, else the reason:
/// selective promotion must beat no promotion on seed-averaged normalized
/// QPC, and the adaptive run must stop on its planted arm.
std::string NqpcVerdict(double nqpc_selective, double nqpc_none);
std::string BaiVerdict(bool bai_stopped, size_t bai_best, size_t planted_arm);

// --- template implementation ------------------------------------------------

template <typename Outstanding>
std::string ReplyChecker::Check(const randrank::net::FrameHeader& header,
                                const uint8_t* payload, size_t len,
                                Outstanding&& outstanding,
                                uint64_t* request_id) {
  using namespace randrank::net;
  if (header.type == FrameType::kError) {
    ErrorFrame err;
    if (!DecodeError(payload, len, &err)) return "undecodable ERROR frame";
    *request_id = err.request_id;
    return std::string("ERROR ") + ErrorCodeName(err.code) + ": " +
           err.message;
  }
  if (header.type != FrameType::kQueryReply) {
    return std::string("unexpected frame ") + FrameTypeName(header.type);
  }
  QueryReplyFrame reply;
  if (!DecodeQueryReply(payload, len, &reply)) {
    return "undecodable QUERY_REPLY";
  }
  *request_id = reply.request_id;
  if (!outstanding(reply.request_id)) {
    return "reply echoes request id " + std::to_string(reply.request_id) +
           " that is not outstanding on this connection";
  }
  return CheckReply(reply);
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
