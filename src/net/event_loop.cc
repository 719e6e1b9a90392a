#include "net/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.h"

namespace ldp::net {

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    Reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Fd::Release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TimerHandle::Cancel() {
  if (flag_ != nullptr) flag_->cancelled = true;
}

bool TimerHandle::active() const {
  return flag_ != nullptr && !flag_->cancelled && !flag_->fired;
}

Result<std::unique_ptr<EventLoop>> EventLoop::Create() {
  int fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) {
    return Error(ErrorCode::kIoError,
                 std::string("epoll_create1: ") + std::strerror(errno));
  }
  int wakeup = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakeup < 0) {
    ::close(fd);
    return Error(ErrorCode::kIoError,
                 std::string("eventfd: ") + std::strerror(errno));
  }
  auto loop = std::unique_ptr<EventLoop>(new EventLoop(fd, wakeup));
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = wakeup;
  if (::epoll_ctl(fd, EPOLL_CTL_ADD, wakeup, &event) != 0) {
    return Error(ErrorCode::kIoError,
                 std::string("epoll_ctl ADD wakeup: ") + std::strerror(errno));
  }
  return loop;
}

EventLoop::~EventLoop() = default;

Status EventLoop::Add(int fd, bool want_read, bool want_write,
                      IoHandler handler) {
  epoll_event event{};
  event.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &event) != 0) {
    return Error(ErrorCode::kIoError,
                 std::string("epoll_ctl ADD: ") + std::strerror(errno));
  }
  handlers_[fd] = std::make_shared<IoHandler>(std::move(handler));
  return Status::Ok();
}

Status EventLoop::Modify(int fd, bool want_read, bool want_write) {
  epoll_event event{};
  event.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &event) != 0) {
    return Error(ErrorCode::kIoError,
                 std::string("epoll_ctl MOD: ") + std::strerror(errno));
  }
  return Status::Ok();
}

void EventLoop::Remove(int fd) {
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

TimerHandle EventLoop::ScheduleAt(NanoTime deadline, std::function<void()> fn) {
  std::shared_ptr<TimerHandle::Flag> flag;
  if (spare_flags_.empty()) {
    flag = std::make_shared<TimerHandle::Flag>();
  } else {
    flag = std::move(spare_flags_.back());
    spare_flags_.pop_back();
  }
  timers_.push(Timer{deadline, next_timer_seq_++, std::move(fn), flag});
  return TimerHandle(std::move(flag));
}

void EventLoop::Recycle(std::shared_ptr<TimerHandle::Flag> flag) {
  if (flag.use_count() != 1) return;  // a handle still reads it
  *flag = TimerHandle::Flag{};
  spare_flags_.push_back(std::move(flag));
}

NanoDuration EventLoop::FireDueTimers(NanoDuration cap) {
  // Fence: timers armed while firing (a handler re-scheduling itself with
  // a zero or already-elapsed delay) wait for the next pass. Firing them
  // in place would keep this loop spinning without ever reaching epoll,
  // starving socket IO for as long as the re-arm chain continues. Older
  // due timers always sort above fenced ones (deadline, then seq), so
  // breaking on a fenced timer skips nothing that was due when the pass
  // began.
  const uint64_t fence = next_timer_seq_;
  while (!timers_.empty()) {
    const Timer& top = timers_.top();
    if (top.flag->cancelled) {
      Recycle(std::move(const_cast<Timer&>(top).flag));
      timers_.pop();
      continue;
    }
    NanoTime now = MonotonicNow();
    if (top.seq >= fence) {
      return std::min<NanoDuration>(
          cap, std::max<NanoDuration>(0, top.deadline - now));
    }
    if (top.deadline > now) {
      return std::min<NanoDuration>(cap, top.deadline - now);
    }
    Timer timer = std::move(const_cast<Timer&>(top));
    timers_.pop();
    timer.flag->fired = true;
    if (loop_lag_ != nullptr && now >= timer.deadline) {
      loop_lag_->Record(static_cast<uint64_t>(now - timer.deadline));
    }
    timer.fn();
    Recycle(std::move(timer.flag));
  }
  return cap;
}

Status EventLoop::RunOnce(NanoDuration wait) {
  NanoDuration timeout = FireDueTimers(wait);
  if (timeout < 0) timeout = 0;

  epoll_event events[256];
  int count;
#if defined(__linux__) && defined(EPOLL_CLOEXEC)
  timespec ts{};
  ts.tv_sec = timeout / kNanosPerSecond;
  ts.tv_nsec = timeout % kNanosPerSecond;
  count = ::epoll_pwait2(epoll_fd_.get(), events, 256, &ts, nullptr);
  if (count < 0 && errno == ENOSYS) {
    count = ::epoll_wait(epoll_fd_.get(), events, 256,
                         static_cast<int>(timeout / kNanosPerMilli));
  }
#else
  count = ::epoll_wait(epoll_fd_.get(), events, 256,
                       static_cast<int>(timeout / kNanosPerMilli));
#endif
  ++wakes_;
  if (count < 0) {
    if (errno == EINTR) return Status::Ok();
    return Error(ErrorCode::kIoError,
                 std::string("epoll_wait: ") + std::strerror(errno));
  }
  if (epoll_batch_ != nullptr && count > 0) {
    epoll_batch_->Record(static_cast<uint64_t>(count));
  }
  for (int i = 0; i < count; ++i) {
    if (events[i].data.fd == wakeup_fd_.get()) {
      // Cross-thread stop request: drain the eventfd and stop. The wakeup
      // fd never appears in handlers_, so registered_fds() stays honest.
      uint64_t counter;
      while (::read(wakeup_fd_.get(), &counter, sizeof(counter)) > 0) {
      }
      stopped_ = true;
      continue;
    }
    auto it = handlers_.find(events[i].data.fd);
    if (it == handlers_.end()) continue;  // removed by an earlier handler
    // Hold a reference: the handler may Remove() itself.
    std::shared_ptr<IoHandler> handler = it->second;
    IoEvents io;
    io.readable = events[i].events & EPOLLIN;
    io.writable = events[i].events & EPOLLOUT;
    io.error = events[i].events & EPOLLERR;
    io.hangup = events[i].events & (EPOLLHUP | EPOLLRDHUP);
    (*handler)(io);
  }
  FireDueTimers(0);
  return Status::Ok();
}

NanoDuration EventLoop::WallToMonotonic() {
  if (offset_wake_ != wakes_) {
    wall_offset_ = WallToMonotonicOffset();
    offset_wake_ = wakes_;
  }
  return wall_offset_;
}

void EventLoop::RequestStop() {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t rc =
      ::write(wakeup_fd_.get(), &one, sizeof(one));
}

void EventLoop::Run() {
  stopped_ = false;
  while (!stopped_) {
    auto status = RunOnce(Millis(100));
    if (!status.ok()) {
      LDP_ERROR << "event loop: " << status.error().ToString();
      return;
    }
  }
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Error(ErrorCode::kIoError,
                 std::string("fcntl O_NONBLOCK: ") + std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace ldp::net
