// Randomized conformance test: the event queue against a trivially correct
// reference model. Thousands of random schedule/cancel/run interleavings
// must produce identical firing sequences — this pins down the lazy-deletion
// heap, the (time, group, sequence) ordering, and cancellation semantics at
// once. Times sit on a coarse grid so that ties are common, and plain
// events (group 0) mix with keyed ones in the lowest, a middle and the
// highest group.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "simcore/simulation.h"

namespace conscale {
namespace {

struct ReferenceEvent {
  double time;
  std::uint64_t group;
  std::uint64_t seq;
  int id;
  bool cancelled = false;
};

class SimulationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulationFuzz, MatchesReferenceModel) {
  Rng rng(GetParam());
  Simulation sim;
  std::vector<int> fired;

  std::vector<ReferenceEvent> reference;  // indexed by id
  std::vector<EventHandle> handles;       // indexed by id
  std::uint64_t plain_seq = 0;
  const std::uint64_t groups[] = {1, 2, 0xffffffffu};
  std::uint64_t keyed_count[] = {0, 0, 0};
  std::size_t cancelled = 0;

  const auto schedule = [&](double requested) {
    const int id = static_cast<int>(reference.size());
    const auto record = [&fired, id] { fired.push_back(id); };
    const double when = std::max(requested, sim.now());
    if (rng.bernoulli(0.4)) {
      handles.push_back(sim.schedule_at(requested, record));
      reference.push_back({when, 0, plain_seq++, id});
      return;
    }
    // Keyed seqs are unique per group but not in scheduling order, so a
    // tie inside a group is broken by the seq, not by arrival.
    const std::size_t g = rng.uniform_index(3);
    const std::uint64_t seq = (keyed_count[g]++ * 7919) % 1000003;
    handles.push_back(sim.schedule_keyed(requested, groups[g], seq, record));
    reference.push_back({when, groups[g], seq, id});
  };
  const auto grid_time = [&rng] {
    return 5.0 * static_cast<double>(rng.uniform_index(21));
  };
  const auto cancel_random = [&] {
    const std::size_t victim = rng.uniform_index(handles.size());
    const bool did_cancel = handles[victim].cancel();
    const bool was_live =
        !reference[victim].cancelled &&
        std::find(fired.begin(), fired.end(), reference[victim].id) ==
            fired.end();
    EXPECT_EQ(did_cancel, was_live);
    if (was_live) {
      reference[victim].cancelled = true;
      ++cancelled;
    }
  };
  const auto expect_pending_count = [&] {
    EXPECT_EQ(sim.pending_events(),
              reference.size() - cancelled - fired.size());
  };

  // Phase 1: random schedules and cancels before running.
  for (int op = 0; op < 400; ++op) {
    if (rng.uniform() < 0.7 || handles.empty()) {
      schedule(grid_time());
    } else {
      cancel_random();
    }
    expect_pending_count();
  }

  // Phase 2: run in random-length time slices, interleaving more schedules
  // and cancels. Events scheduled "in the past" clamp to now and fire next.
  double horizon = 0.0;
  while (horizon < 100.0) {
    horizon += rng.uniform(0.0, 20.0);
    sim.run_until(horizon);
    expect_pending_count();
    if (rng.bernoulli(0.5)) schedule(grid_time());
    if (rng.bernoulli(0.3)) cancel_random();
    expect_pending_count();
  }
  sim.run_all();
  EXPECT_EQ(sim.pending_events(), 0u);

  // Reference: sort by (time, group, seq), drop cancelled.
  std::vector<ReferenceEvent> expected;
  for (const auto& e : reference) {
    if (!e.cancelled) expected.push_back(e);
  }
  std::sort(expected.begin(), expected.end(),
            [](const ReferenceEvent& a, const ReferenceEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.group != b.group) return a.group < b.group;
              return a.seq < b.seq;
            });

  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], expected[i].id) << "position " << i;
  }
  EXPECT_EQ(sim.events_executed(), fired.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace conscale
