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

/// Channel skew (widest / narrowest declared delay) above which per-channel
/// null messages replace the global time window.
constexpr double kNullMessageSkew = 4.0;

/// Heap order for the pending-message min-heaps: earliest delivery first.
/// Ties need no order here — delivery injects keyed events, and the
/// destination queue orders equal times by (stream, seq) regardless of
/// injection order.
bool later_delivery(const LaneMessage& a, const LaneMessage& b) {
  return a.deliver_time > b.deliver_time;
}

}  // namespace

std::string to_string(Protocol protocol) {
  return protocol == Protocol::kTimeWindow ? "time-window barrier"
                                           : "null-message";
}

LaneEngine::LaneEngine(Options options)
    : serialize_lane0_(options.serialize_lane0) {
  if (options.lanes == 0) options.lanes = 1;
  thread_count_ =
      std::max<std::size_t>(1, std::min(options.threads, options.lanes));
  lanes_.reserve(options.lanes);
  for (std::size_t i = 0; i < options.lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  pending_.resize(options.lanes);
  channels_from_.resize(options.lanes);
  channels_to_.resize(options.lanes);
  activity_.resize(options.lanes, kInf);
  bounds_.resize(options.lanes, 0.0);
  worker_errors_.resize(options.lanes);
}

LaneEngine::~LaneEngine() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
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
  channels_.push_back(Channel{from, to, min_delay, -kInf});
  channels_from_[from].push_back(index);
  channels_to_[to].push_back(index);
  fresh_eot_.resize(channels_.size(), -kInf);
}

SimDuration LaneEngine::lookahead() const {
  SimDuration window = kInf;
  for (const Channel& channel : channels_) {
    window = std::min(window, channel.min_delay);
  }
  return window;
}

Protocol LaneEngine::protocol() const {
  // Uniform channels: a global time window already runs every lane at its
  // individual pairwise bound, so the simpler barrier wins. Strong skew is
  // the only regime where per-pair null messages buy extra parallelism.
  SimDuration widest = 0.0;
  for (const Channel& channel : channels_) {
    widest = std::max(widest, channel.min_delay);
  }
  return widest / lookahead() <= kNullMessageSkew ? Protocol::kTimeWindow
                                                  : Protocol::kNullMessage;
}

void LaneEngine::post(std::size_t from, std::size_t dest,
                      SimTime deliver_time, std::uint64_t stream,
                      std::uint64_t seq, EventCallback fn) {
  if (dest >= lanes_.size()) {
    throw std::out_of_range("LaneEngine::post: no such destination lane");
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
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return shutdown_ || round_generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = round_generation_;
    }
    drain_work_queue();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--workers_running_ == 0) done_cv_.notify_one();
    }
  }
}

void LaneEngine::drain_work_queue() {
  // Work-pulling: each participating thread (workers + the coordinator)
  // claims the next (lane, bound) pair. Which thread runs a lane is
  // unobservable — lanes are causally closed within a round.
  for (;;) {
    const std::size_t index =
        work_cursor_.fetch_add(1, std::memory_order_relaxed);
    if (index >= round_work_.size()) return;
    const std::size_t lane_index = round_work_[index].first;
    const SimTime bound = round_work_[index].second;
    try {
      lanes_[lane_index]->sim().run_before(bound);
    } catch (...) {
      worker_errors_[lane_index] = std::current_exception();
    }
  }
}

SimTime LaneEngine::next_activity(std::size_t lane_index) {
  SimTime t = lanes_[lane_index]->sim().next_event_time();
  if (!pending_[lane_index].empty()) {
    t = std::min(t, pending_[lane_index].front().deliver_time);
  }
  return t;
}

void LaneEngine::deliver_pending(std::size_t dest, SimTime bound) {
  std::vector<LaneMessage>& heap = pending_[dest];
  Simulation& sim = lanes_[dest]->sim();
  while (!heap.empty() && heap.front().deliver_time < bound) {
    std::pop_heap(heap.begin(), heap.end(), later_delivery);
    LaneMessage message = std::move(heap.back());
    heap.pop_back();
    if (message.deliver_time < sim.now()) {
      std::ostringstream what;
      what << "LaneEngine: causality violation delivering to lane " << dest
           << ": message (stream " << message.stream << ", seq " << message.seq
           << ") arrives at " << message.deliver_time
           << " but the lane already executed to " << sim.now();
      throw std::runtime_error(what.str());
    }
    sim.schedule_keyed(message.deliver_time, message.stream, message.seq,
                       std::move(message.fn));
  }
}

void LaneEngine::collect_outboxes() {
  // post() already held every message to its channel's delay.
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    for (LaneMessage& message : lane->outbox_) {
      ++stats_.messages;
      std::vector<LaneMessage>& heap = pending_[message.dest];
      heap.push_back(std::move(message));
      std::push_heap(heap.begin(), heap.end(), later_delivery);
    }
    lane->outbox_.clear();
  }
}

void LaneEngine::run_serial_instant(SimTime t0, SimTime bound) {
  // Drain every lane through the instant on the coordinator thread, lane 0
  // first. Clocks are normalized to t0 so control-plane code that directly
  // calls into another lane's components (scale-out, warehouse queries)
  // observes the same `now` a single-threaded run would — and the same one
  // under either protocol, since the instant set {t0} is round-structure
  // independent.
  for (;;) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      deliver_pending(i, bound);
      lanes_[i]->sim().advance_to(t0);
      lanes_[i]->sim().run_before(bound);
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

void LaneEngine::compute_bounds(SimTime t_all, SimTime cap) {
  if (protocol_ == Protocol::kTimeWindow) {
    const SimTime bound = std::min(t_all + window_, cap);
    for (std::size_t i = 0; i < lanes_.size(); ++i) bounds_[i] = bound;
    return;
  }
  // Null-message protocol (CMB). Pass 1: refresh each channel's earliest
  // output time. A channel's source can act at its own next event OR at the
  // arrival of a message another lane could still send it, so the sound EOT
  // is the fixed point
  //
  //   eot[c] = min(activity[src(c)], min over channels c' into src(c) of
  //                eot[c']) + delay[c]
  //
  // iterated downward from +inf. The result is the minimum over simple
  // paths ending in c of (path-source activity + total path delay): cycles
  // only add positive delay, so the iteration is stable after at most one
  // sweep per lane. Crucially this value never *decreases* across rounds —
  // a lane woken by a message inherits the (activity + delay) budget of its
  // waker, which the previous round's paths already included — so the
  // monotone announcement layer below stays sound even for lanes that were
  // idle (EOT +inf) and later receive work.
  for (std::size_t c = 0; c < channels_.size(); ++c) fresh_eot_[c] = kInf;
  for (std::size_t sweep = 0; sweep < lanes_.size(); ++sweep) {
    bool changed = false;
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      SimTime horizon = activity_[channels_[c].from];
      for (const std::size_t in : channels_to_[channels_[c].from]) {
        horizon = std::min(horizon, fresh_eot_[in]);
      }
      const SimTime value = horizon + channels_[c].min_delay;
      if (value < fresh_eot_[c]) {
        fresh_eot_[c] = value;
        changed = true;
      }
    }
    if (!changed) break;
  }
  // Announce only advances of at least the anti-flood floor, half a window.
  // Suppression can only *delay* a bound, never relax it, so it affects
  // scheduling but not results.
  const SimDuration floor = 0.5 * window_;
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (fresh_eot_[c] > channels_[c].announced_eot) {
      if (fresh_eot_[c] - channels_[c].announced_eot >= floor) {
        channels_[c].announced_eot = fresh_eot_[c];
        ++stats_.nulls_announced;
      } else {
        ++stats_.nulls_suppressed;
      }
    }
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    SimTime bound = cap;
    for (const std::size_t c : channels_to_[i]) {
      bound = std::min(bound, channels_[c].announced_eot);
    }
    bounds_[i] = bound;
  }
  // Pass 2: demand-driven announcements. A lane with work remaining but a
  // bound at or below its next activity is starved by suppressed nulls;
  // force-publish its in-channels' fresh EOTs. The global-minimum lane
  // always ends up with bound >= t_all + min in-channel delay > t_all, so
  // every round strictly advances the global clock — deadlock-free.
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (activity_[i] >= cap || bounds_[i] > activity_[i]) continue;
    SimTime bound = cap;
    for (const std::size_t c : channels_to_[i]) {
      if (fresh_eot_[c] > channels_[c].announced_eot) {
        channels_[c].announced_eot = fresh_eot_[c];
        ++stats_.nulls_announced;
        --stats_.nulls_suppressed;
      }
      bound = std::min(bound, channels_[c].announced_eot);
    }
    bounds_[i] = bound;
  }
}

void LaneEngine::run(SimTime duration) {
  window_ = lookahead();
  protocol_ = protocol();
  // Events scheduled at exactly `duration` must execute (run_until
  // semantics), so the final exclusive bound is the next double above it.
  end_bound_ =
      std::nextafter(duration, std::numeric_limits<SimTime>::infinity());
  for (Channel& channel : channels_) channel.announced_eot = -kInf;
  start_workers();
  // Messages posted during model construction (before any round) enter the
  // routing heaps here; deliver_time >= 0 + channel delay, nothing is due.
  collect_outboxes();
  for (;;) {
    SimTime t_all = kInf;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      activity_[i] = next_activity(i);
      t_all = std::min(t_all, activity_[i]);
    }
    if (t_all >= end_bound_) break;
    const SimTime t0 = serialize_lane0_ ? activity_[0] : kInf;
    if (t0 <= t_all) {
      const SimTime bound = std::min(
          std::nextafter(t0, std::numeric_limits<SimTime>::infinity()),
          end_bound_);
      run_serial_instant(t0, bound);
      ++stats_.windows;
      ++stats_.serial_rounds;
      continue;
    }
    const SimTime cap = std::min(end_bound_, t0);
    compute_bounds(t_all, cap);
    round_work_.clear();
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (activity_[i] < bounds_[i]) {
        round_work_.emplace_back(i, bounds_[i]);
        deliver_pending(i, bounds_[i]);
      }
    }
    if (round_work_.empty()) {
      // compute_bounds guarantees the global-minimum lane is runnable;
      // reaching here means the protocol state is corrupt.
      throw std::runtime_error(
          "LaneEngine: no lane runnable below its bound — synchronization "
          "state is inconsistent");
    }
    if (round_work_.size() == 1 || workers_.empty()) {
      // Solo fast path: a round with one active lane (or a single-threaded
      // pool) needs no barrier round-trip — run inline on the coordinator.
      if (round_work_.size() == 1) ++stats_.solo_rounds;
      for (const std::pair<std::size_t, SimTime>& work : round_work_) {
        lanes_[work.first]->sim().run_before(work.second);
      }
    } else {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        work_cursor_.store(0, std::memory_order_relaxed);
        workers_running_ = workers_.size();
        ++round_generation_;
      }
      start_cv_.notify_all();
      drain_work_queue();
      {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] { return workers_running_ == 0; });
      }
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
