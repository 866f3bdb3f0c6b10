#include "service/update_queue.hpp"

#include <utility>

#include "util/error.hpp"

namespace dsched::service {

UpdateQueue::UpdateQueue(std::size_t capacity) : capacity_(capacity) {
  DSCHED_CHECK_MSG(capacity_ >= 1, "update queue needs capacity >= 1");
}

std::uint64_t UpdateQueue::Push(Job&& job, bool blocking) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (blocking) {
    if (!closed_ && jobs_.size() >= capacity_) {
      ++blocked_pushes_;
      not_full_.wait(lock,
                     [this] { return closed_ || jobs_.size() < capacity_; });
    }
    if (closed_) {
      throw util::LogicError("Submit on a closed session");
    }
  } else {
    if (closed_) {
      throw util::LogicError("Submit on a closed session");
    }
    if (jobs_.size() >= capacity_) {
      ++blocked_pushes_;
      return 0;
    }
  }
  const std::uint64_t epoch = next_epoch_++;
  job.epoch = epoch;
  jobs_.push_back(std::move(job));
  high_water_ = std::max(high_water_, jobs_.size());
  lock.unlock();
  not_empty_.notify_one();
  return epoch;
}

bool UpdateQueue::Pop(Job& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait(lock, [this] { return closed_ || !jobs_.empty(); });
  if (jobs_.empty()) {
    return false;  // closed and drained
  }
  out = std::move(jobs_.front());
  jobs_.pop_front();
  lock.unlock();
  // A slot freed: unblock one waiting producer (or, once closed, let a
  // mid-wait producer observe the close and throw).
  not_full_.notify_one();
  return true;
}

void UpdateQueue::Close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  // Wake everyone: blocked producers must throw, the consumer must drain.
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool UpdateQueue::Closed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t UpdateQueue::Depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

std::size_t UpdateQueue::HighWater() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return high_water_;
}

std::uint64_t UpdateQueue::BlockedPushes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return blocked_pushes_;
}

std::uint64_t UpdateQueue::LastEpoch() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_epoch_ - 1;
}

}  // namespace dsched::service
