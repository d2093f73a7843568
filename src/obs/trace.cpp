#include "obs/trace.hpp"

namespace zendoo::obs {

EventLog::EventLog(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void EventLog::push(const Event& e) {
  ring_[next_] = e;
  next_ = (next_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++total_;
}

std::vector<Event> EventLog::snapshot() const {
  std::vector<Event> out;
  out.reserve(size_);
  // Oldest entry: next_ when the ring has wrapped, 0 before that.
  const std::size_t start = size_ == ring_.size() ? next_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void EventLog::clear() {
  next_ = 0;
  size_ = 0;
  total_ = 0;
}

}  // namespace zendoo::obs
