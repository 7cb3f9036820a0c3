// Tests for the trace warehouse and the aggregate call-graph store.
#include "trace/warehouse.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace sora {
namespace {

Trace trace_ending_at(SimTime end, std::uint64_t id) {
  return testutil::make_trace({{-1, 0, end - 100, end, 0}}, id);
}

TEST(TraceWarehouse, StoresAndCounts) {
  TraceWarehouse wh(10);
  wh.store(trace_ending_at(100, 1));
  wh.store(trace_ending_at(200, 2));
  wh.store(trace_ending_at(300, 3));
  EXPECT_EQ(wh.size(), 3u);
  EXPECT_EQ(wh.count_in_window(0, 1000), 3u);
  EXPECT_EQ(wh.count_in_window(150, 250), 1u);
  EXPECT_EQ(wh.count_in_window(301, 400), 0u);
  EXPECT_EQ(wh.total_stored(), 3u);
}

TEST(TraceWarehouse, WindowBoundariesInclusive) {
  TraceWarehouse wh(10);
  wh.store(trace_ending_at(100, 1));
  EXPECT_EQ(wh.count_in_window(100, 100), 1u);
}

TEST(TraceWarehouse, EvictsOldest) {
  TraceWarehouse wh(2);
  wh.store(trace_ending_at(100, 1));
  wh.store(trace_ending_at(200, 2));
  wh.store(trace_ending_at(300, 3));
  EXPECT_EQ(wh.size(), 2u);
  EXPECT_EQ(wh.total_evicted(), 1u);
  EXPECT_EQ(wh.count_in_window(0, 150), 0u);  // oldest gone
}

TEST(TraceWarehouse, VisitsOldestFirst) {
  TraceWarehouse wh(10);
  wh.store(trace_ending_at(300, 3));
  // (stores are completion-ordered by construction in real use)
  std::vector<SimTime> ends;
  wh.store(trace_ending_at(400, 4));
  wh.for_each_in_window(0, 1000,
                        [&](const Trace& t) { ends.push_back(t.end); });
  EXPECT_EQ(ends, (std::vector<SimTime>{300, 400}));
}

TEST(TraceWarehouse, AttachToTracer) {
  Tracer tracer;
  TraceWarehouse wh(10);
  wh.attach(tracer);
  const TraceId tid = tracer.begin_trace(0, 0);
  const SpanRef root =
      tracer.start_span(tid, SpanRef{}, ServiceId(0), InstanceId(0), 0, 0);
  tracer.finish_span(root, 50);
  EXPECT_EQ(wh.size(), 1u);
}

TEST(CallGraphStore, CountsEdgesAndRoots) {
  CallGraphStore store;
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},
      {0, 1, 10, 90, 60},
      {1, 2, 20, 80, 0},
      {0, 3, 10, 30, 0},
  });
  store.ingest(t);
  store.ingest(t);
  EXPECT_EQ(store.root_count(ServiceId(0)), 2u);
  EXPECT_EQ(store.edge_count(ServiceId(0), ServiceId(1)), 2u);
  EXPECT_EQ(store.edge_count(ServiceId(1), ServiceId(2)), 2u);
  EXPECT_EQ(store.edge_count(ServiceId(0), ServiceId(3)), 2u);
  EXPECT_EQ(store.edge_count(ServiceId(2), ServiceId(0)), 0u);
  EXPECT_EQ(store.num_edges(), 3u);
}

// Edges are read through each span's parent slot; a slot that addresses a
// span with another id (here: span 2's parent slot moved onto span 3)
// drops that one edge instead of crediting the wrong caller.
TEST(CallGraphStore, StaleParentSlotDropsTheEdge) {
  CallGraphStore store;
  Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},
      {0, 1, 10, 90, 60},
      {1, 2, 20, 80, 0},
      {0, 3, 10, 30, 0},
  });
  t.spans[2].parent_slot = 3;
  store.ingest(t);
  EXPECT_EQ(store.edge_count(ServiceId(0), ServiceId(1)), 1u);
  EXPECT_EQ(store.edge_count(ServiceId(1), ServiceId(2)), 0u);
  EXPECT_EQ(store.edge_count(ServiceId(3), ServiceId(2)), 0u);
  EXPECT_EQ(store.num_edges(), 2u);
}

}  // namespace
}  // namespace sora
