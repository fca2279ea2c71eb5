// sched-skewed-durable: the in-process sharded scheduler, cooperative mode.
//
// Four shards run ss2pl-sql over a materialized 100k-row DatabaseServer,
// driven by StepOnce on this one thread, with the group-commit WAL (fsync
// on) in a data directory under .bench_build that is removed afterwards.
// 500 closed-loop clients each run 4-8 op transactions (70% reads, 30%
// writes) over zipf-skewed rows in ascending row order, so the workload is
// deadlock-free and many requests wait on locks.
//
// Each round is: submit every request the clients have ready (Submit),
// run every shard once (StepOnce), then let the clients react to what was
// dispatched. The dispatch callback only copies the batch out, so the
// program's work is exactly the Submit and StepOnce calls and the client's
// work sits between them. For a fixed seed every count repeats exactly;
// only the number of rounds that fit in the run varies.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "checks.h"
#include "layers.h"
#include "scheduler/protocol_library.h"
#include "scheduler/sharded_scheduler.h"
#include "server/database_server.h"
#include "storage/wal.h"

namespace perfbench {

namespace {

using declsched::SimTime;
using declsched::scheduler::Request;
using declsched::scheduler::RequestBatch;
using declsched::scheduler::ShardedScheduler;
using declsched::txn::OpType;

constexpr int kShards = 4;
constexpr int kClients = 500;
constexpr int kMinOps = 4;
constexpr int kMaxOps = 8;
constexpr double kWriteShare = 0.3;
constexpr double kZipfTheta = 0.8;
constexpr size_t kMaxReplayRequests = 200000;

struct ClientTxn {
  int64_t ta = 0;
  int n = 0;     ///< read/write ops
  int next = 0;  ///< ops dispatched so far
  uint8_t write_mask = 0;
  int32_t rows[kMaxOps] = {};
  int64_t start_ns = 0;  ///< first Submit
};

/// Removes the run's data directory however the run ends.
struct DirGuard {
  std::string path;
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Totals of the program's own counters, read between rounds.
struct ProgramCounters {
  ShardedScheduler::Totals totals;
  int64_t busy_us = 0;
  int64_t query_us = 0;
  int64_t coordination_us = 0;
  int64_t wal_bytes = 0;
  int64_t wal_records = 0;
  int64_t wal_fsyncs = 0;

  static ProgramCounters Read(ShardedScheduler& sched) {
    ProgramCounters c;
    c.totals = sched.totals();
    for (int i = 0; i < sched.num_shards(); ++i) {
      c.busy_us += sched.shard_busy_us(i);
      c.query_us += sched.shard(i)->totals().total_query_us;
    }
    c.coordination_us = sched.coordination_us();
    if (declsched::storage::Wal* wal = sched.wal()) {
      c.wal_bytes = wal->appended_bytes();
      c.wal_records = wal->append_count();
      c.wal_fsyncs = wal->fsync_count();
    }
    return c;
  }
};

}  // namespace

RunResult RunSchedSkewedDurable(const RunOptions& options) {
  RunResult out;
  const std::vector<int>& cpus = options.cpus;

  // --- set-up: table, four protocol compiles, WAL recovery ---
  DirGuard dir{".bench_build/sched-wal-" + std::to_string(getpid())};
  std::error_code ec;
  std::filesystem::remove_all(dir.path, ec);

  const int64_t table0 = NowNs();
  declsched::server::DatabaseServer::Config config;
  config.num_rows = kRows;
  config.materialize_rows = true;
  declsched::server::DatabaseServer server(config);
  const int64_t table1 = NowNs();

  RequestBatch sink;  // the dispatch callback's output, drained every round
  ShardedScheduler::Options sched_options;
  sched_options.num_shards = kShards;
  sched_options.shard.protocol = declsched::scheduler::Ss2plSql();
  // Ascending-row transactions are deadlock-free by construction.
  sched_options.shard.deadlock_detection = false;
  sched_options.keep_dispatch_log = false;
  sched_options.durability.enabled = true;
  sched_options.durability.dir = dir.path;
  sched_options.durability.fsync = true;
  sched_options.on_dispatch = [&sink](int, const RequestBatch& batch) {
    sink.insert(sink.end(), batch.begin(), batch.end());
  };
  ShardedScheduler sched(std::move(sched_options), &server);
  const int64_t compile0 = NowNs();
  const declsched::Status init = sched.Init();
  const int64_t ready = NowNs();
  if (!init.ok()) {
    out.Problem("scheduler init: " + init.ToString());
    return out;
  }
  const double setup_s =
      static_cast<double>(ready - options.process_start_ns) / 1e9;
  // One busy thread (this one, driving the program and the clients) on a
  // CPU of its own; the WAL flusher, which mostly sleeps in fsync, on the
  // others.
  if (cpus.size() >= 2) {
    const int mine = cpus[cpus.size() / 2];
    std::vector<int> rest;
    for (int c : cpus) {
      if (c != mine) rest.push_back(c);
    }
    SpreadOtherThreads(rest);
    PinCurrentThread({mine});
  }

  // --- the benchmark's own inputs and bookkeeping ---
  Rng rng(options.seed * 0x2545F4914F6CDD1Dull + 3);
  const ZipfRows zipf(kRows, kZipfTheta);
  std::vector<int64_t> before(static_cast<size_t>(kRows));
  for (int64_t row = 0; row < kRows; ++row) {
    before[static_cast<size_t>(row)] = *server.RowValue(row);
  }
  std::vector<int64_t> acked_writes(static_cast<size_t>(kRows), 0);
  std::vector<ClientTxn> clients(kClients);
  std::vector<int32_t> client_of_ta(1, -1);  // index = ta
  std::vector<uint8_t> submitted_ids;        // index = request id
  std::vector<uint8_t> dispatches_of_id;     // index = request id
  std::vector<DispatchEvent> history;
  RequestBatch to_submit;

  int64_t next_ta = 1;
  auto start_txn = [&](int c) {
    ClientTxn& t = clients[static_cast<size_t>(c)];
    t.ta = next_ta++;
    client_of_ta.push_back(c);
    t.n = kMinOps + static_cast<int>(rng.Below(kMaxOps - kMinOps + 1));
    t.next = 0;
    t.write_mask = 0;
    for (int i = 0; i < t.n; ++i) {
      int32_t row;
      bool fresh;
      do {
        row = static_cast<int32_t>(zipf.Draw(&rng));
        fresh = true;
        for (int j = 0; j < i; ++j) fresh = fresh && t.rows[j] != row;
      } while (!fresh);
      t.rows[i] = row;
    }
    std::sort(t.rows, t.rows + t.n);
    for (int i = 0; i < t.n; ++i) {
      if (rng.Unit() < kWriteShare) t.write_mask |= static_cast<uint8_t>(1u << i);
    }
  };
  auto next_request = [](const ClientTxn& t) {
    Request r;
    r.ta = t.ta;
    r.intrata = t.next + 1;
    if (t.next < t.n) {
      r.op = (t.write_mask >> t.next) & 1u ? OpType::kWrite : OpType::kRead;
      r.object = t.rows[t.next];
    } else {
      r.op = OpType::kCommit;
      r.object = Request::kNoObject;
    }
    return r;
  };

  for (int c = 0; c < kClients; ++c) {
    start_txn(c);
    to_submit.push_back(next_request(clients[static_cast<size_t>(c)]));
  }

  // --- spans of the traced run ---
  int64_t span_submit_ns = 0, span_submit_count = 0;
  int64_t span_step_ns = 0, shard_cycles_run = 0;
  int64_t blocked_sum = 0, blocked_samples = 0;
  int64_t tracing_ns = 0, tracing_spans = 0;  // the timed tracing-only work per round
  int64_t wait_rounds_sum = 0, wait_samples = 0;
  std::vector<int64_t> round_of_id;  // traced: round each request was submitted in
  RequestBatch exec_stream;  // traced: dispatched requests, for the server replay

  // --- the run ---
  Slices slices(NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9), options.seconds);
  // A traced run measures its first half of slices untraced and its second
  // half traced.
  const int traced_from = options.trace ? slices.count() / 2 : slices.count();
  bool tracing = false;
  int active = kClients;
  int64_t round = 0, submitted = 0, aborts = 0;
  int64_t client_ns = 0;  // the client's time on this thread, between program calls
  int64_t traced_start_ns = 0, traced_end_ns = 0;
  ProgramCounters c0, c1;

  while (true) {
    // Program: admit what the clients have ready, then one pass over shards.
    const int64_t submit_ns = NowNs();
    for (Request& r : to_submit) {
      if (r.intrata == 1) {
        clients[static_cast<size_t>(client_of_ta[static_cast<size_t>(r.ta)])]
            .start_ns = submit_ns;
      }
      int64_t id;
      if (tracing) {
        const int64_t s0 = NowNs();
        id = sched.Submit(r, SimTime());
        span_submit_ns += NowNs() - s0;
        ++span_submit_count;
      } else {
        id = sched.Submit(r, SimTime());
      }
      if (static_cast<size_t>(id) >= submitted_ids.size()) {
        submitted_ids.resize(static_cast<size_t>(id) * 2 + 1024, 0);
        dispatches_of_id.resize(submitted_ids.size(), 0);
        if (options.trace) round_of_id.resize(submitted_ids.size(), 0);
      }
      submitted_ids[static_cast<size_t>(id)] = 1;
      if (options.trace) round_of_id[static_cast<size_t>(id)] = round;
      ++submitted;
    }
    to_submit.clear();
    declsched::Result<int> ran = [&] {
      if (!tracing) return sched.StepOnce(SimTime());
      const int64_t s0 = NowNs();
      declsched::Result<int> r = sched.StepOnce(SimTime());
      span_step_ns += NowNs() - s0;
      if (r.ok()) shard_cycles_run += *r;
      return r;
    }();
    ++round;
    if (!ran.ok()) {
      out.Problem("StepOnce: " + ran.status().ToString());
      break;
    }

    // Tracing: sample the lock waits and capture what was dispatched.
    if (tracing) {
      const int64_t t0 = NowNs();
      for (int i = 0; i < kShards; ++i) {
        blocked_sum += sched.shard(i)->store()->pending_count();
      }
      ++blocked_samples;
      for (const Request& r : sink) {
        if (r.id > 0 && static_cast<size_t>(r.id) < round_of_id.size() &&
            round_of_id[static_cast<size_t>(r.id)] > 0) {
          wait_rounds_sum += round - round_of_id[static_cast<size_t>(r.id)];
          ++wait_samples;
        }
        if (exec_stream.size() < kMaxReplayRequests) exec_stream.push_back(r);
      }
      tracing_ns += NowNs() - t0;
      ++tracing_spans;
    }

    // Client: react to the dispatched requests.
    const int64_t now = NowNs();
    for (const Request& r : sink) {
      if (r.id > 0 && static_cast<size_t>(r.id) < dispatches_of_id.size()) {
        ++dispatches_of_id[static_cast<size_t>(r.id)];
      }
      if (r.ta <= 0 || static_cast<size_t>(r.ta) >= client_of_ta.size()) {
        out.Problem("dispatch of unknown transaction " + std::to_string(r.ta));
        continue;
      }
      ClientTxn& t =
          clients[static_cast<size_t>(client_of_ta[static_cast<size_t>(r.ta)])];
      switch (r.op) {
        case OpType::kRead:
          history.push_back({r.ta, DispatchEvent::kRead, r.object});
          break;
        case OpType::kWrite:
          history.push_back({r.ta, DispatchEvent::kWrite, r.object});
          ++acked_writes[static_cast<size_t>(r.object)];
          break;
        case OpType::kCommit:
          history.push_back({r.ta, DispatchEvent::kCommit, -1});
          break;
        case OpType::kAbort:
          history.push_back({r.ta, DispatchEvent::kAbort, -1});
          ++aborts;
          break;
      }
      if (r.op == OpType::kRead || r.op == OpType::kWrite) {
        ++t.next;
        to_submit.push_back(next_request(t));
        continue;
      }
      // The transaction finished; its client starts the next one.
      if (r.op == OpType::kCommit) {
        slices.Complete(now, static_cast<double>(now - t.start_ns) / 1e3);
      }
      if (slices.done()) {
        --active;
      } else {
        start_txn(client_of_ta[static_cast<size_t>(r.ta)]);
        to_submit.push_back(next_request(t));
      }
    }
    sink.clear();
    client_ns += NowNs() - now;

    while (!slices.done() && now >= slices.next_mark_ns()) {
      const int mark = slices.marks();
      slices.Mark(now, ProcessCpuNs(), client_ns);
      if (mark == 0) c0 = ProgramCounters::Read(sched);
      if (slices.done()) {
        c1 = ProgramCounters::Read(sched);
        if (tracing) traced_end_ns = now;
        tracing = false;
      } else if (mark == traced_from) {
        tracing = true;
        traced_start_ns = now;
      }
    }
    if (slices.done() && active == 0) break;
    if (*ran == 0 && to_submit.empty()) {
      out.Problem("scheduler stalled with " + std::to_string(active) +
                  " transactions open");
      break;
    }
  }

  // --- closing flush and checks ---
  declsched::storage::Wal* wal = sched.wal();
  const int64_t flush0 = NowNs();
  const declsched::Status flushed = wal->Flush();
  const int64_t flush1 = NowNs();
  if (!flushed.ok()) out.Problem("wal flush: " + flushed.ToString());
  const ProgramCounters fin = ProgramCounters::Read(sched);

  std::vector<int64_t> after(static_cast<size_t>(kRows));
  for (int64_t row = 0; row < kRows; ++row) {
    after[static_cast<size_t>(row)] = *server.RowValue(row);
  }
  std::vector<uint8_t> acks;
  int64_t stray = 0, undispatched = 0;
  for (size_t id = 0; id < submitted_ids.size(); ++id) {
    if (submitted_ids[id]) {
      acks.push_back(dispatches_of_id[id]);
      if (dispatches_of_id[id] == 0) ++undispatched;
    } else {
      stray += dispatches_of_id[id];
    }
  }
  for (const CheckResult& check :
       {CheckRowDeltas(before, after, acked_writes),
        CheckExactlyOnce(acks, stray),
        CheckSameCount("dispatched requests", submitted,
                       fin.totals.dispatched),
        CheckRigorous(history),
        CheckDurable(wal->head_lsn(), wal->durable_lsn())}) {
    if (!check.ok) out.Problem(check.detail);
  }

  // --- metrics ---
  const int n = slices.count();
  const double txns = static_cast<double>(std::max<int64_t>(slices.units(0, n), 1));
  out.attempted = static_cast<int64_t>(acks.size());
  // Failed: aborted transactions, and requests never dispatched (left
  // behind by a stall or a StepOnce error).
  out.failed = aborts + undispatched;
  const std::vector<double> all = slices.Samples(0, n);
  std::printf("# sched-skewed-durable: %lld commits in %d s (%lld rounds); whole window: "
              "%.0f txn/s, p50 %.1f us, p99 %.1f us over %zu samples\n",
              static_cast<long long>(slices.units(0, n)), n, static_cast<long long>(round),
              static_cast<double>(slices.units(0, n)) / n, Percentile(all, 0.5),
              Percentile(all, 0.99), all.size());
  if (!options.trace) {
    out.Add("txn_per_s", slices.MedianRate(0, n), "txn/s");
    out.Add("lat_p50_us", slices.MedianPercentile(0, n, 0.50), "us");
    out.Add("lat_p99_us", slices.MedianPercentile(0, n, 0.99), "us");
    out.Add("cpu_us_per_txn", slices.MedianCpuUsPerUnit(0, n), "us/txn");
    out.Add("setup_s", setup_s, "s");
    return out;
  }

  const double dispatched =
      static_cast<double>(c1.totals.dispatched - c0.totals.dispatched);
  const double cycles =
      static_cast<double>(std::max<int64_t>(c1.totals.cycles - c0.totals.cycles, 1));
  const double traced_wall =
      static_cast<double>(std::max<int64_t>(traced_end_ns - traced_start_ns, 1));
  out.Add("sched.requests_per_cycle", dispatched / cycles, "count");
  out.Add("sched.busy_us_per_txn", static_cast<double>(c1.busy_us - c0.busy_us) / txns, "us/txn");
  out.Add("sched.query_us_per_cycle", static_cast<double>(c1.query_us - c0.query_us) / cycles, "us");
  out.Add("sched.cycle_us",
          static_cast<double>(span_step_ns) / 1e3 /
              static_cast<double>(std::max<int64_t>(shard_cycles_run, 1)),
          "us");
  out.Add("sched.submit_ns",
          static_cast<double>(span_submit_ns) /
              static_cast<double>(std::max<int64_t>(span_submit_count, 1)),
          "ns");
  out.Add("sched.coordination_us_per_txn",
          static_cast<double>(c1.coordination_us - c0.coordination_us) / txns, "us/txn");
  out.Add("sched.escrows_per_txn",
          static_cast<double>(c1.totals.escrows - c0.totals.escrows) / txns, "count");
  out.Add("sched.mirrors_per_txn",
          static_cast<double>(c1.totals.mirrors_applied - c0.totals.mirrors_applied) / txns,
          "count");
  out.Add("sched.wait_cycles_mean",
          static_cast<double>(wait_rounds_sum) /
              static_cast<double>(std::max<int64_t>(wait_samples, 1)),
          "count");
  out.Add("sched.blocked_mean",
          static_cast<double>(blocked_sum) /
              static_cast<double>(std::max<int64_t>(blocked_samples, 1)),
          "count");
  out.Add("wal.bytes_per_txn", static_cast<double>(c1.wal_bytes - c0.wal_bytes) / txns, "B/txn");
  out.Add("wal.records_per_txn", static_cast<double>(c1.wal_records - c0.wal_records) / txns,
          "count");
  out.Add("wal.txns_per_fsync",
          txns / static_cast<double>(std::max<int64_t>(c1.wal_fsyncs - c0.wal_fsyncs, 1)),
          "count");
  out.Add("wal.final_flush_us", static_cast<double>(flush1 - flush0) / 1e3, "us");
  out.Add("setup.table_build_ms", static_cast<double>(table1 - table0) / 1e6, "ms");
  out.Add("setup.protocol_compile_ms", static_cast<double>(ready - compile0) / 1e6, "ms");
  out.Add("trace.span_coverage",
          static_cast<double>(span_submit_ns + span_step_ns) / traced_wall, "ratio");
  // Tracing costs: two clock reads per span (Submit, StepOnce and the
  // tracing block itself) plus the timed sampling and capture.
  const double spans = static_cast<double>(span_submit_count + blocked_samples + tracing_spans);
  out.Add("trace.overhead_pct",
          100.0 * (static_cast<double>(tracing_ns) + ClockPairNs() * spans) / traced_wall,
          "%");
  out.Add("client.lat_samples", static_cast<double>(all.size()), "count");
  const ExecuteReplay replay = ReplayExecute(
      exec_stream, static_cast<int64_t>(std::llround(dispatched / cycles)));
  out.Add("server.execute_ns_per_stmt", replay.ns_per_stmt, "ns");
  return out;
}

}  // namespace perfbench
