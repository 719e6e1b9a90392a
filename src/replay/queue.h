// MPSC hand-off queue between replay pipeline stages (controller →
// distributor), with an eventfd the consumer registers in its event loop so
// query hand-off wakes the loop without polling.
#ifndef LDPLAYER_REPLAY_QUEUE_H
#define LDPLAYER_REPLAY_QUEUE_H

#include <sys/eventfd.h>
#include <unistd.h>

#include <cstdint>
#include <iterator>
#include <mutex>
#include <vector>

namespace ldp::replay {

template <typename T>
class NotifyQueue {
 public:
  NotifyQueue() : event_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~NotifyQueue() {
    if (event_fd_ >= 0) ::close(event_fd_);
  }
  NotifyQueue(const NotifyQueue&) = delete;
  NotifyQueue& operator=(const NotifyQueue&) = delete;

  // Readable when items are pending or input has closed.
  int event_fd() const { return event_fd_; }

  void Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      items_.push_back(std::move(item));
    }
    Notify();
  }

  // Takes the batch's buffer whole when nothing is pending, so handing
  // over a batch allocates nothing per item.
  void PushBatch(std::vector<T>&& items) {
    if (items.empty()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (items_.empty()) {
        items_.swap(items);
      } else {
        items_.insert(items_.end(), std::make_move_iterator(items.begin()),
                      std::make_move_iterator(items.end()));
      }
    }
    Notify();
  }

  // Marks end of input; consumers see `closed` from Drain once drained.
  void CloseInput() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    Notify();
  }

  struct DrainResult {
    std::vector<T> items;
    bool closed = false;  // no more input will ever arrive
  };

  DrainResult Drain() {
    // Clear the eventfd, then take everything under the lock.
    uint64_t counter;
    while (::read(event_fd_, &counter, sizeof(counter)) > 0) {
    }
    DrainResult result;
    std::lock_guard<std::mutex> lock(mutex_);
    result.items.swap(items_);
    result.closed = closed_;
    return result;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  void Notify() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t rc = ::write(event_fd_, &one, sizeof(one));
  }

  int event_fd_;
  mutable std::mutex mutex_;
  std::vector<T> items_;
  bool closed_ = false;
};

}  // namespace ldp::replay

#endif  // LDPLAYER_REPLAY_QUEUE_H
