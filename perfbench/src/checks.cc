#include "checks.h"

#include <algorithm>

namespace perfbench {

std::string ListChecker::Check(const uint32_t* pages, size_t count) {
  const size_t want = std::min(m_, n_);
  if (count != want) {
    return "list holds " + std::to_string(count) + " ids, want " +
           std::to_string(want);
  }
  if (++generation_ == 0) {  // wrapped: restart the stamps
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    generation_ = 1;
  }
  for (size_t i = 0; i < count; ++i) {
    const uint32_t page = pages[i];
    if (page >= n_) {
      return "page id " + std::to_string(page) + " >= n=" + std::to_string(n_);
    }
    if (stamp_[page] == generation_) {
      return "page id " + std::to_string(page) + " appears twice";
    }
    stamp_[page] = generation_;
  }
  return {};
}

std::string ReplyChecker::CheckReply(
    const randrank::net::QueryReplyFrame& reply) {
  std::string why = lists_.Check(reply.pages);
  if (!why.empty()) return why;
  if (reply.epoch < last_epoch_) {
    return "epoch went back from " + std::to_string(last_epoch_) + " to " +
           std::to_string(reply.epoch);
  }
  last_epoch_ = reply.epoch;
  return {};
}

std::string NqpcVerdict(double nqpc_selective, double nqpc_none) {
  if (nqpc_selective > nqpc_none) return {};
  return "selective nQPC " + std::to_string(nqpc_selective) +
         " does not beat none " + std::to_string(nqpc_none);
}

std::string BaiVerdict(bool bai_stopped, size_t bai_best, size_t planted_arm) {
  if (!bai_stopped) return "adaptive run did not stop";
  if (bai_best != planted_arm) {
    return "adaptive run stopped on arm " + std::to_string(bai_best) +
           ", planted arm is " + std::to_string(planted_arm);
  }
  return {};
}

}  // namespace perfbench
