#include "runtime/batcher.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/error.hpp"

namespace lbnn::runtime {

std::vector<BitVec> pack_requests(const std::vector<Request>& requests,
                                  std::size_t num_inputs) {
  const std::size_t lanes = requests.size();
  const std::size_t in_words = (num_inputs + 63) / 64;
  // Lane-major staging: row `lane` holds that request's inputs, 64 per word.
  std::vector<std::uint64_t> rows(lanes * in_words);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const auto& bits = requests[lane].inputs;
    LBNN_CHECK(bits.size() == num_inputs, "request input arity mismatch");
    auto bit = bits.begin();
    for (std::size_t w = 0; w < in_words; ++w) {
      const std::size_t n = std::min<std::size_t>(64, num_inputs - w * 64);
      std::uint64_t acc = 0;
      for (std::size_t b = 0; b < n; ++b, ++bit) acc |= std::uint64_t{*bit} << b;
      rows[lane * in_words + w] = acc;
    }
  }
  std::vector<BitVec> packed(num_inputs, BitVec(lanes));
  std::uint64_t tile[64];
  for (std::size_t lw = 0; lw * 64 < lanes; ++lw) {
    for (std::size_t w = 0; w < in_words; ++w) {
      for (std::size_t r = 0; r < 64; ++r) {
        const std::size_t lane = lw * 64 + r;
        tile[r] = lane < lanes ? rows[lane * in_words + w] : 0;
      }
      transpose64(tile);  // tile[r] = lanes lw*64.. of input w*64 + r
      for (std::size_t r = 0; r < 64 && w * 64 + r < num_inputs; ++r) {
        packed[w * 64 + r].set_word(lw, tile[r]);
      }
    }
  }
  return packed;
}

std::vector<std::vector<bool>> unpack_outputs(const std::vector<BitVec>& outputs,
                                              std::size_t num_requests) {
  const std::size_t num_outputs = outputs.size();
  for (const BitVec& out : outputs) {
    LBNN_CHECK(out.width() >= num_requests, "output word narrower than batch");
  }
  // Sized, not copied from a prototype: a vector<bool> copy moves its tail
  // bits one at a time.
  std::vector<std::vector<bool>> per_request;
  per_request.reserve(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) per_request.emplace_back(num_outputs);
  std::uint64_t tile[64];
  for (std::size_t w = 0; w * 64 < num_outputs; ++w) {
    for (std::size_t lw = 0; lw * 64 < num_requests; ++lw) {
      for (std::size_t r = 0; r < 64; ++r) {
        const std::size_t po = w * 64 + r;
        tile[r] = po < num_outputs ? outputs[po].word(lw) : 0;
      }
      transpose64(tile);  // tile[r] = outputs w*64.. of lane lw*64 + r
      for (std::size_t r = 0; r < 64 && lw * 64 + r < num_requests; ++r) {
        // Only the 1 bits are written: assigning every bit through the
        // vector<bool> proxy branches on the data.
        auto& bits = per_request[lw * 64 + r];
        for (std::uint64_t set = tile[r]; set != 0; set &= set - 1) {
          bits[w * 64 + static_cast<std::size_t>(countr_zero64(set))] = true;
        }
      }
    }
  }
  return per_request;
}

Batcher::Batcher(ClockSource& clock, std::size_t num_inputs,
                 std::size_t lane_capacity, std::size_t num_members,
                 std::chrono::microseconds max_wait, SealFn on_seal)
    : clock_(clock),
      num_inputs_(num_inputs),
      lane_capacity_(lane_capacity),
      num_members_(num_members),
      max_wait_(max_wait),
      on_seal_(std::move(on_seal)) {
  LBNN_CHECK(lane_capacity_ > 0, "batcher needs at least one lane");
  LBNN_CHECK(num_members_ > 0, "batcher needs at least one assembly member");
  LBNN_CHECK(on_seal_ != nullptr, "batcher needs a seal sink");
}

Batch Batcher::finish(std::vector<Request>&& requests) const {
  Batch sealed;
  sealed.requests = std::move(requests);
  sealed.member_slots.assign(num_members_, MemberSlot{});
  return sealed;
}

std::future<std::vector<bool>> Batcher::submit(std::vector<bool> input_bits,
                                               TimePoint deadline,
                                               bool* opened_batch,
                                               std::uint64_t req_id) {
  if (input_bits.size() != num_inputs_) {
    throw Error("request has " + std::to_string(input_bits.size()) +
                " input bits, model expects " + std::to_string(num_inputs_));
  }
  Request req;
  req.inputs = std::move(input_bits);
  req.enqueued = clock_.now();
  req.deadline = deadline;
  req.id = req_id;
  std::future<std::vector<bool>> fut = req.result.get_future();

  std::vector<Request> full;
  bool opened = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (open_.empty()) {
      open_.reserve(lane_capacity_);
      open_deadline_ = req.enqueued + max_wait_;
      opened = true;
    }
    open_.push_back(std::move(req));
    if (open_.size() >= lane_capacity_) {
      full.swap(open_);
      opened = false;  // sealed inline; no deadline left to watch
    }
  }
  if (opened_batch != nullptr) *opened_batch = opened;
  // Seal outside the lock: on_seal_ feeds a queue that wakes workers, and a
  // worker must never contend with submitters on the batcher mutex.
  if (!full.empty()) on_seal_(finish(std::move(full)));
  return fut;
}

std::size_t Batcher::open_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return open_.size();
}

std::optional<TimePoint> Batcher::deadline() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (open_.empty()) return std::nullopt;
  return open_deadline_;
}

void Batcher::seal_if_expired(TimePoint now) {
  std::vector<Request> expired;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (open_.empty() || now < open_deadline_) return;
    expired.swap(open_);
  }
  on_seal_(finish(std::move(expired)));
}

void Batcher::flush() {
  std::vector<Request> open;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (open_.empty()) return;
    open.swap(open_);
  }
  on_seal_(finish(std::move(open)));
}

}  // namespace lbnn::runtime
