#include "simcore/lanes/lane_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace conscale::lanes {

namespace {

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

}  // namespace

std::string to_string(Protocol /*protocol*/) { return "time-window barrier"; }

LaneEngine::LaneEngine(Options options)
    : serialize_lane0_(options.serialize_lane0) {
  if (options.lanes == 0) options.lanes = 1;
  thread_count_ =
      std::max<std::size_t>(1, std::min(options.threads, options.lanes));
  lanes_.reserve(options.lanes);
  for (std::size_t i = 0; i < options.lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  channels_from_.resize(options.lanes);
  activity_.resize(options.lanes, kInf);
  worker_errors_.resize(options.lanes);
}

LaneEngine::~LaneEngine() {
  shutdown_.store(true, std::memory_order_release);
  detail::wake(mutex_, start_cv_);
  for (std::thread& worker : workers_) worker.join();
}

void LaneEngine::declare_channel(std::size_t from, std::size_t to,
                                 SimDuration min_delay) {
  if (from >= lanes_.size() || to >= lanes_.size()) {
    throw std::out_of_range("LaneEngine::declare_channel: no such lane");
  }
  if (from == to) {
    throw std::invalid_argument(
        "LaneEngine::declare_channel: self-channels are implicit (same-lane "
        "scheduling needs no channel)");
  }
  if (!(min_delay > 0.0)) {
    throw std::invalid_argument(
        "LaneEngine::declare_channel: min_delay must be > 0");
  }
  for (const std::size_t index : channels_from_[from]) {
    Channel& existing = channels_[index];
    if (existing.to == to) {
      existing.min_delay = std::min(existing.min_delay, min_delay);
      return;
    }
  }
  const std::size_t index = channels_.size();
  channels_.push_back(Channel{from, to, min_delay});
  channels_from_[from].push_back(index);
}

SimDuration LaneEngine::lookahead() const {
  SimDuration window = kInf;
  for (const Channel& channel : channels_) {
    window = std::min(window, channel.min_delay);
  }
  return window;
}

void LaneEngine::post(std::size_t from, std::size_t dest,
                      SimTime deliver_time, std::uint64_t stream,
                      std::uint64_t seq, EventCallback fn) {
  if (from >= lanes_.size() || dest >= lanes_.size()) {
    throw std::out_of_range("LaneEngine::post: no such lane");
  }
  // Delivery schedules under the stream as a keyed group, which must not
  // be the plain events' 0; refuse here, not rounds later at delivery.
  if (stream == 0) {
    throw std::out_of_range("LaneEngine::post: stream 0 is not an actor's");
  }
  if (!fn) {
    throw std::invalid_argument("LaneEngine::post: empty callback");
  }
  const Channel* channel = nullptr;
  for (const std::size_t index : channels_from_[from]) {
    if (channels_[index].to == dest) {
      channel = &channels_[index];
      break;
    }
  }
  if (channel == nullptr) {
    std::ostringstream what;
    what << "LaneEngine::post: lane " << from << " -> " << dest
         << " has no declared channel (stream " << stream << ", seq " << seq
         << ") — every cross-lane edge must be declared";
    throw std::runtime_error(what.str());
  }
  // fl(now + d) is monotone in d, so a conforming post (delay >= declared
  // minimum) always passes this check exactly — no epsilon needed.
  const SimTime min_deliver = lanes_[from]->sim().now() + channel->min_delay;
  if (deliver_time < min_deliver) {
    std::ostringstream what;
    what << "LaneEngine::post: lane " << from << " -> " << dest
         << " lookahead violation: message (stream " << stream << ", seq "
         << seq << ") delivers at " << deliver_time
         << " but the channel guarantees >= " << min_deliver
         << " (declared min delay " << channel->min_delay << ")";
    throw std::runtime_error(what.str());
  }
  lanes_[from]->outbox_.push_back(
      LaneMessage{deliver_time, stream, seq, dest, std::move(fn)});
}

void LaneEngine::start_workers() {
  const std::size_t pool =
      std::min(thread_count_, lanes_.size());
  if (!workers_.empty() || pool <= 1) return;
  workers_.reserve(pool - 1);
  for (std::size_t i = 1; i < pool; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void LaneEngine::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    detail::barrier_wait(mutex_, start_cv_, [&] {
      return shutdown_.load(std::memory_order_acquire) ||
             round_generation_.load(std::memory_order_acquire) !=
                 seen_generation;
    });
    if (shutdown_.load(std::memory_order_acquire)) return;
    seen_generation = round_generation_.load(std::memory_order_relaxed);
    drain_work_queue();
    if (workers_running_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      detail::wake(mutex_, done_cv_);
    }
  }
}

void LaneEngine::drain_work_queue() {
  // Work-pulling: each participating thread (workers + the coordinator)
  // claims the next lane. Which thread runs a lane is unobservable — lanes
  // are causally closed within a round.
  for (;;) {
    const std::size_t index =
        work_cursor_.fetch_add(1, std::memory_order_relaxed);
    if (index >= round_work_.size()) return;
    const std::size_t lane_index = round_work_[index];
    try {
      run_lane(lane_index, round_bound_);
    } catch (...) {
      worker_errors_[lane_index] = std::current_exception();
    }
  }
}

SimTime LaneEngine::next_activity(std::size_t lane_index) {
  Lane& lane = *lanes_[lane_index];
  return std::min(lane.sim_.next_event_time(), lane.inbox_min_);
}

void LaneEngine::run_lane(std::size_t lane_index, SimTime bound) {
  // The whole inbox goes in, also messages due rounds later: the queue
  // orders them by key whenever they were scheduled (header comment).
  Lane& lane = *lanes_[lane_index];
  Simulation& sim = lane.sim_;
  for (LaneMessage& message : lane.inbox_) {
    if (message.deliver_time < sim.now()) {
      std::ostringstream what;
      what << "LaneEngine: causality violation delivering to lane "
           << lane_index << ": message (stream " << message.stream
           << ", seq " << message.seq << ") arrives at "
           << message.deliver_time << " but the lane already executed to "
           << sim.now();
      throw std::runtime_error(what.str());
    }
    sim.schedule_keyed(message.deliver_time, message.stream, message.seq,
                       std::move(message.fn));
  }
  lane.inbox_.clear();
  lane.inbox_min_ = kInf;
  sim.run_before(bound);
}

void LaneEngine::collect_outboxes() {
  // post() already held every message to its channel's delay.
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    for (LaneMessage& message : lane->outbox_) {
      ++stats_.messages;
      Lane& dest = *lanes_[message.dest];
      dest.inbox_min_ = std::min(dest.inbox_min_, message.deliver_time);
      dest.inbox_.push_back(std::move(message));
    }
    lane->outbox_.clear();
  }
}

void LaneEngine::run_serial_instant(SimTime t0, SimTime bound) {
  // Drain every lane through the instant on the coordinator thread, lane 0
  // first. Clocks are normalized to t0 so control-plane code that directly
  // calls into another lane's components (scale-out, warehouse queries)
  // observes the same `now` a single-threaded run would — whatever the
  // round structure, since the instant set {t0} does not depend on it.
  for (;;) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      lanes_[i]->sim().advance_to(t0);
      run_lane(i, bound);
    }
    collect_outboxes();
    // A lane-0 event may have scheduled follow-ups at t0 on other lanes (or
    // vice versa through a zero-delay direct call); sweep until quiescent.
    bool again = false;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (next_activity(i) < bound) {
        again = true;
        break;
      }
    }
    if (!again) return;
  }
}

void LaneEngine::run(SimTime duration) {
  const SimDuration window = lookahead();
  // Events scheduled at exactly `duration` must execute (run_until
  // semantics), so the final exclusive bound is the next double above it.
  const SimTime end_bound = std::nextafter(duration, kInf);
  start_workers();
  // Messages posted during model construction (before any round) enter the
  // inboxes here; deliver_time >= 0 + channel delay, nothing is due.
  collect_outboxes();
  for (;;) {
    SimTime t_all = kInf;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      activity_[i] = next_activity(i);
      t_all = std::min(t_all, activity_[i]);
    }
    if (t_all >= end_bound) break;
    const SimTime t0 = serialize_lane0_ ? activity_[0] : kInf;
    if (t0 <= t_all) {
      run_serial_instant(t0, std::min(std::nextafter(t0, kInf), end_bound));
      ++stats_.windows;
      ++stats_.serial_rounds;
      continue;
    }
    const SimTime bound = std::min({t_all + window, t0, end_bound});
    if (!(bound > t_all)) {
      // t_all + window rounded back to t_all: no lane could advance.
      std::ostringstream what;
      what << "LaneEngine: window " << window
           << " is below the clock resolution at t=" << t_all;
      throw std::runtime_error(what.str());
    }
    round_work_.clear();
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (activity_[i] < bound) round_work_.push_back(i);
    }
    round_bound_ = bound;
    if (round_work_.size() == 1 || workers_.empty()) {
      // Solo fast path: a round with one active lane (or a single-threaded
      // pool) needs no barrier round-trip — run inline on the coordinator.
      if (round_work_.size() == 1) ++stats_.solo_rounds;
      for (const std::size_t lane_index : round_work_) {
        run_lane(lane_index, bound);
      }
    } else {
      work_cursor_.store(0, std::memory_order_relaxed);
      workers_running_.store(workers_.size(), std::memory_order_relaxed);
      round_generation_.fetch_add(1, std::memory_order_release);
      detail::wake(mutex_, start_cv_);
      drain_work_queue();
      detail::barrier_wait(mutex_, done_cv_, [&] {
        return workers_running_.load(std::memory_order_acquire) == 0;
      });
      for (std::exception_ptr& error : worker_errors_) {
        if (error) {
          const std::exception_ptr raised = std::exchange(error, nullptr);
          std::rethrow_exception(raised);
        }
      }
    }
    collect_outboxes();
    ++stats_.windows;
  }
  stats_.events = 0;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    lane->sim().advance_to(duration);
    stats_.events += lane->sim().events_executed();
  }
}

}  // namespace conscale::lanes
