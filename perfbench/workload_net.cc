// The two network workloads, driven through net::FrontDoor over loopback
// by the benchmark's own single-threaded client.
//
// http-tenants-open: HTTP/JSON, 1 reactor, 2 threaded shards, wfq-sql over
//   8 tenants with unequal weights and offered shares; an open loop at a
//   fixed rate over 4 keep-alive connections. Each POST carries one
//   read-mostly transaction of 3 ops on distinct ascending uniform rows.
// binary-pipelined-closed: the wire transport, 2 reactors, 1 shard,
//   ss2pl-sql; a closed loop over 2 connections, each keeping kWireDepth
//   SUBMIT frames in flight. The server hands accepted connections to its
//   reactors round-robin (force_fallback_accept), so each reactor owns one
//   connection in every run instead of wherever the kernel's SO_REUSEPORT
//   hash of the client port puts it. Each frame carries one
//   transaction of 2 writes on distinct ascending uniform rows. No WAL.
//
// Threads: the client thread is pinned to the last CPU, and the program's
// threads (reactors and shard workers) to the others: one per CPU in
// creation order on the wire workload, all on one CPU on the HTTP workload
// (see RunNet). The client and the program never compete for a core. CPU per
// transaction is the process's CPU time minus the client thread's own.
// The client writes everything it queued in one pass of its loop with one
// send per connection, as a pipelining client does.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "checks.h"
#include "layers.h"
#include "net/front_door.h"
#include "net/wire/wire_codec.h"
#include "net_client.h"
#include "scheduler/protocol_library.h"
#include "scheduler/sharded_scheduler.h"

namespace perfbench {

namespace {

namespace wire = declsched::net::wire;
using declsched::net::FrontDoor;
using declsched::scheduler::RequestBatch;
using declsched::scheduler::ShardedScheduler;

constexpr int64_t kDrainTimeoutNs = 10LL * 1000 * 1000 * 1000;
constexpr size_t kMaxCapture = 50000;
constexpr size_t kMaxReplayRequests = 200000;

// http-tenants-open
constexpr int kHttpConnections = 4;
constexpr double kHttpRate = 4000;  // transactions (POSTs) per second
constexpr int kHttpOps = 3;
constexpr double kHttpWriteShare = 0.1;
constexpr int kTenants = 8;
constexpr int64_t kTenantWeight[kTenants] = {4, 1, 2, 8, 1, 2, 4, 1};
constexpr double kTenantShare[kTenants] = {0.30, 0.20, 0.15, 0.10,
                                           0.10, 0.07, 0.05, 0.03};

// binary-pipelined-closed: one connection per reactor, two SUBMITs in
// flight on each. With 32 in flight per connection the wire path saturates,
// and at saturation its throughput moved by 25% between sets of runs (two
// operating points, one with scheduler cycles twice as costly), so the loop
// is kept below saturation, where runs agree to about 10%.
constexpr int kWireReactors = 2;
constexpr int kWireConnections = kWireReactors;
constexpr int kWireDepth = 2;
constexpr int kWireOps = 2;

/// One generated transaction: up to 3 ops on ascending distinct rows.
struct GenTxn {
  uint8_t tenant = 0;
  uint8_t n = 0;
  uint8_t write_mask = 0;
  int32_t rows[3] = {};
};


/// Everything the client thread measured.
struct ClientReport {
  ClientReport(int64_t window_start_ns, double seconds)
      : slices(window_start_ns, seconds) {}
  Slices slices;                            ///< latency samples and clocks
  std::vector<double> send_lag_us;          ///< open loop: sent - due
  std::vector<uint8_t> acks;                ///< per request index
  std::vector<int64_t> acked_writes;        ///< per row
  int64_t stray_acks = 0;
  int64_t sent = 0;
  int64_t committed = 0;  ///< acknowledged transactions, whole run
  int64_t failed = 0;     ///< non-success answers or unanswered at the end
  int64_t bytes = 0;
  std::vector<std::string> captured_requests;  ///< traced: HTTP bytes or frames
  std::vector<std::string> captured_bodies;    ///< traced: JSON bodies
  int64_t capture_ns = 0;     ///< traced: time spent capturing, timed
  int64_t capture_spans = 0;  ///< traced: clock-read pairs taken to time it
  std::string error;
};

GenTxn Generate(bool http, Rng* rng) {
  GenTxn t;
  const int n = http ? kHttpOps : kWireOps;
  if (http) {
    double u = rng->Unit();
    int tenant = 0;
    while (tenant < kTenants - 1 && u >= kTenantShare[tenant]) {
      u -= kTenantShare[tenant];
      ++tenant;
    }
    t.tenant = static_cast<uint8_t>(tenant);
  }
  t.n = static_cast<uint8_t>(n);
  for (int i = 0; i < n; ++i) {
    int32_t row;
    bool fresh;
    do {
      row = static_cast<int32_t>(rng->Below(kRows));
      fresh = true;
      for (int j = 0; j < i; ++j) fresh = fresh && t.rows[j] != row;
    } while (!fresh);
    t.rows[i] = row;
  }
  std::sort(t.rows, t.rows + n);
  for (int i = 0; i < n; ++i) {
    const bool write = http ? rng->Unit() < kHttpWriteShare : true;
    if (write) t.write_mask |= static_cast<uint8_t>(1u << i);
  }
  return t;
}

std::string HttpBody(const GenTxn& t) {
  std::string body = "{\"tenant\":" + std::to_string(t.tenant) + ",\"txns\":[{\"ops\":[";
  for (int i = 0; i < t.n; ++i) {
    if (i > 0) body += ',';
    body += (t.write_mask >> i) & 1u ? "{\"op\":\"write\",\"object\":"
                                     : "{\"op\":\"read\",\"object\":";
    body += std::to_string(t.rows[i]) + "}";
  }
  body += "]}]}";
  return body;
}

std::string HttpRequestBytes(const std::string& body) {
  return "POST /v1/submit HTTP/1.1\r\nHost: bench\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string WireSubmitFrame(const GenTxn& t, uint64_t request_id) {
  wire::WireSubmit submit;
  submit.tenant = t.tenant;
  wire::WireTxn txn;
  for (int i = 0; i < t.n; ++i) {
    txn.ops.push_back(wire::WireOpEntry{((t.write_mask >> i) & 1u) != 0, t.rows[i]});
  }
  submit.txns.push_back(std::move(txn));
  std::string frame;
  wire::AppendFrame(&frame, wire::WireOp::kSubmit, 0, request_id,
                    wire::EncodeSubmitBody(submit));
  return frame;
}

/// The client thread: sends, receives, times, and counts. Runs pinned to
/// its own CPU. HTTP runs the open loop, the wire the closed loop; either
/// way every request queued in one pass of the loop goes out in one write
/// per connection at the end of the pass.
void RunClient(bool http, const RunOptions& options, FrontDoor& door,
               int client_cpu, int64_t t_begin, ClientReport* report) {
  if (client_cpu >= 0) PinCurrentThread({client_cpu});
  const int connections = http ? kHttpConnections : kWireConnections;
  Rng rng(options.seed * 0x9E3779B97F4A7C15ull + (http ? 1 : 2));
  report->acked_writes.assign(static_cast<size_t>(kRows), 0);

  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<wire::FrameParser> parsers(static_cast<size_t>(connections));
  for (int i = 0; i < connections; ++i) {
    std::unique_ptr<Conn> conn = Conn::Connect(
        http ? door.port() : door.binary_port(), &report->error);
    if (!conn) return;
    if (!http) {
      // Handshake before any SUBMIT.
      std::string hello;
      wire::AppendFrame(&hello, wire::WireOp::kHello, 0, 0, wire::EncodeHelloBody());
      conn->Queue(hello);
      if (!conn->Flush()) {
        report->error = "wire handshake send failed";
        return;
      }
      wire::WireFrame frame;
      while (true) {
        if (!conn->ReadAvailable()) {
          report->error = "wire connection closed during handshake";
          return;
        }
        parsers[static_cast<size_t>(i)].Feed(conn->in());
        conn->in().clear();
        const auto outcome = parsers[static_cast<size_t>(i)].Next(&frame);
        if (outcome == wire::FrameParser::Outcome::kNeedMore) continue;
        if (outcome != wire::FrameParser::Outcome::kFrame ||
            frame.op != wire::WireOp::kHelloOk) {
          report->error = "wire handshake refused";
          return;
        }
        break;
      }
    }
    conns.push_back(std::move(conn));
  }
  Poller poller(conns);

  Slices& slices = report->slices;
  // A traced run measures its first half of slices untraced and captures
  // inputs for the layer replays in its second half.
  const int traced_from = options.trace ? slices.count() / 2 : slices.count();
  const int64_t t_end = slices.end_ns();
  const double period_ns = 1e9 / kHttpRate;

  std::vector<GenTxn> txns;
  std::vector<int64_t> start_ns;  // due (open loop) or sent (closed loop)
  std::vector<std::deque<int64_t>> fifo(static_cast<size_t>(connections));  // HTTP: in order
  int64_t outstanding = 0;
  bool stopped = false;

  auto send = [&](int c, int64_t due_ns) {
    const int64_t k = static_cast<int64_t>(txns.size());
    txns.push_back(Generate(http, &rng));
    report->acks.push_back(0);
    const GenTxn& t = txns.back();
    const bool capture =
        slices.marks() > traced_from && report->captured_requests.size() < kMaxCapture;
    std::string body = http ? HttpBody(t) : std::string();
    std::string bytes =
        http ? HttpRequestBytes(body) : WireSubmitFrame(t, static_cast<uint64_t>(k));
    conns[static_cast<size_t>(c)]->Queue(bytes);
    if (http) fifo[static_cast<size_t>(c)].push_back(k);
    if (capture) {
      const int64_t c0 = NowNs();
      report->captured_requests.push_back(std::move(bytes));
      if (http) report->captured_bodies.push_back(std::move(body));
      report->capture_ns += NowNs() - c0;
      ++report->capture_spans;
    }
    const int64_t sent_ns = NowNs();
    start_ns.push_back(due_ns > 0 ? due_ns : sent_ns);
    if (due_ns > 0 && slices.marks() > 0) {
      report->send_lag_us.push_back(static_cast<double>(sent_ns - due_ns) / 1e3);
    }
    ++outstanding;
    ++report->sent;
  };

  // Matches one answer to request k; counts its writes once acknowledged.
  auto on_ack = [&](int64_t k, bool ok, int64_t now) -> void {
    if (k < 0 || k >= static_cast<int64_t>(txns.size())) {
      ++report->stray_acks;
      return;
    }
    if (report->acks[static_cast<size_t>(k)]++ > 0) return;
    --outstanding;
    if (!ok) {
      ++report->failed;
      return;
    }
    ++report->committed;
    const GenTxn& t = txns[static_cast<size_t>(k)];
    for (int i = 0; i < t.n; ++i) {
      if ((t.write_mask >> i) & 1u) ++report->acked_writes[static_cast<size_t>(t.rows[i])];
    }
    slices.Complete(now, static_cast<double>(now - start_ns[static_cast<size_t>(k)]) / 1e3);
  };

  auto flush_all = [&] {
    for (auto& conn : conns) {
      if (conn->has_pending_output() && !conn->Flush()) report->error = "send failed";
    }
  };

  int64_t next_due = t_begin;
  if (!http) {
    for (int c = 0; c < connections; ++c) {
      for (int d = 0; d < kWireDepth; ++d) send(c, 0);
    }
  }
  wire::WireFrame frame;
  std::string body;
  while (true) {
    int64_t now = NowNs();
    while (!slices.done() && now >= slices.next_mark_ns()) {
      slices.Mark(now, ProcessCpuNs(), ThreadCpuNs());
    }
    stopped = stopped || slices.done();
    if (http && !stopped) {
      while (next_due <= now && next_due < t_end) {
        int best = 0;
        for (int c = 1; c < connections; ++c) {
          if (fifo[static_cast<size_t>(c)].size() < fifo[static_cast<size_t>(best)].size()) best = c;
        }
        send(best, next_due);
        next_due = t_begin + static_cast<int64_t>(
                                 std::llround(static_cast<double>(txns.size()) * period_ns));
      }
      flush_all();
    }
    for (int c : poller.Wait(0)) {
      Conn& conn = *conns[static_cast<size_t>(c)];
      const bool open = conn.ReadAvailable();
      now = NowNs();
      if (http) {
        int status = 0;
        while (TakeHttpResponse(&conn.in(), &status, &body)) {
          auto& q = fifo[static_cast<size_t>(c)];
          if (q.empty()) {
            ++report->stray_acks;
            continue;
          }
          const int64_t k = q.front();
          q.pop_front();
          on_ack(k, status == 200, now);
        }
      } else {
        wire::FrameParser& parser = parsers[static_cast<size_t>(c)];
        parser.Feed(conn.in());
        conn.in().clear();
        while (parser.Next(&frame) == wire::FrameParser::Outcome::kFrame) {
          on_ack(static_cast<int64_t>(frame.request_id),
                 frame.op == wire::WireOp::kSubmitOk, now);
          if (!stopped) send(c, 0);
        }
      }
      if (!open) {
        report->error = "server closed a connection";
        stopped = true;
      }
    }
    flush_all();
    if (stopped && outstanding == 0) break;
    if (stopped && (NowNs() > t_end + kDrainTimeoutNs || !report->error.empty())) {
      report->failed += outstanding;
      break;
    }
  }
  for (auto& conn : conns) report->bytes += conn->bytes_sent() + conn->bytes_received();
}

/// Snapshot of every row's value (the row-delta check's before/after).
std::vector<int64_t> SnapshotRows(declsched::server::DatabaseServer& server) {
  std::vector<int64_t> rows(static_cast<size_t>(kRows));
  for (int64_t row = 0; row < kRows; ++row) rows[static_cast<size_t>(row)] = *server.RowValue(row);
  return rows;
}

/// Times Init() of a fresh sharded scheduler built like the front door's
/// (same shard count, protocol and tenant options; no server).
double TimeProtocolCompileMs(const FrontDoor::Options& fd) {
  ShardedScheduler::Options options;
  options.num_shards = fd.num_shards;
  options.shard = fd.shard;
  options.shard.deadlock_detection = false;
  const int64_t t0 = NowNs();
  ShardedScheduler sched(std::move(options), nullptr);
  const declsched::Status st = sched.Init();
  return st.ok() ? static_cast<double>(NowNs() - t0) / 1e6 : 0;
}

RunResult RunNet(bool http, const RunOptions& options) {
  RunResult out;
  const std::vector<int>& cpus = options.cpus;
  const int client_cpu = cpus.size() >= 2 ? cpus.back() : -1;

  FrontDoor::Options fd;
  fd.server.num_rows = kRows;
  fd.server.materialize_rows = true;
  fd.keep_dispatch_log = options.trace;
  if (http) {
    fd.num_shards = 2;
    fd.shard.protocol = declsched::scheduler::WfqSql();
    for (int t = 0; t < kTenants; ++t) {
      // Buckets at 4x each tenant's offered statement rate, with a second
      // of burst: admission never throttles this workload.
      const int64_t offered =
          static_cast<int64_t>(std::ceil(kTenantShare[t] * kHttpRate * kHttpOps));
      declsched::scheduler::TenantQosSpec spec;
      spec.weight = kTenantWeight[t];
      spec.rate = 4 * offered;
      spec.burst = 4 * offered;
      fd.shard.tenant_qos.tenants[t] = spec;
    }
  } else {
    fd.num_shards = 1;
    fd.shard.protocol = declsched::scheduler::Ss2plSql();
    wire::BinaryServer::Options binary;
    binary.reactor_threads = kWireReactors;
    binary.force_fallback_accept = true;
    fd.binary = binary;
  }
  FrontDoor door(fd);
  const declsched::Status started = door.Start();
  if (!started.ok()) {
    out.Problem("front door start: " + started.ToString());
    return out;
  }
  const double setup_s =
      static_cast<double>(NowNs() - options.process_start_ns) / 1e9;
  if (client_cpu >= 0) {
    // The wire loop spreads the program's threads one per CPU. The HTTP open
    // loop keeps them all on one CPU: between arrivals that CPU idles, and
    // its hand-offs (reactor, shard workers) then stay on it instead of
    // waking idle CPUs, whose wake-up latency moved the spread placement's
    // p99 between runs (336-360 us against 120-125 us, interleaved runs).
    std::vector<int> program_cpus(cpus.begin(), cpus.end() - 1);
    if (http && program_cpus.size() >= 2) program_cpus = {cpus[1]};
    SpreadOtherThreads(program_cpus);
    PinCurrentThread(program_cpus);
  }
  const std::vector<int64_t> before = SnapshotRows(*door.server());

  const int64_t t_begin = NowNs();
  const int64_t t_window = t_begin + static_cast<int64_t>(kWarmupSeconds * 1e9);
  ClientReport report(t_window, options.seconds);
  std::atomic<bool> client_done{false};
  std::thread client([&] {
    RunClient(http, options, door, client_cpu, t_begin, &report);
    client_done.store(true);
  });

  // This thread reads the scheduler's totals at the window's edges and, in
  // a traced run, drains the dispatch log for the server replay.
  const int64_t t_end = t_window + static_cast<int64_t>(options.seconds * 1e9);
  RequestBatch dispatched;
  const int64_t t_traced = t_window + static_cast<int64_t>(report.slices.count() / 2) * 1000000000;
  int64_t drain_ns = 0, drain_spans = 0;  // traced half: draining the dispatch log
  ShardedScheduler::Totals w0, w1;
  bool got_w0 = false, got_w1 = false;
  while (!client_done.load()) {
    const int64_t now = NowNs();
    if (!got_w0 && now >= t_window) {
      w0 = door.sched()->totals();
      got_w0 = true;
    }
    if (!got_w1 && now >= t_end) {
      w1 = door.sched()->totals();
      got_w1 = true;
    }
    if (options.trace) {
      RequestBatch batch = door.sched()->TakeDispatched();
      if (got_w0 && !got_w1 && dispatched.size() < kMaxReplayRequests) {
        dispatched.insert(dispatched.end(), batch.begin(), batch.end());
      }
      if (now >= t_traced && !got_w1) {
        drain_ns += NowNs() - now;
        ++drain_spans;
      }
    }
    usleep(20000);
  }
  client.join();
  if (!got_w1) w1 = door.sched()->totals();

  const std::string prometheus = door.metrics().RenderPrometheus();
  const int64_t program_commits =
      door.metrics().Value("frontdoor_txns_committed_total");
  const std::vector<int64_t> after = SnapshotRows(*door.server());
  const int64_t coordination_us = door.sched()->coordination_us();
  const ShardedScheduler::Totals fin = door.sched()->totals();
  int64_t busy_us = 0;
  for (int i = 0; i < door.sched()->num_shards(); ++i) {
    busy_us += door.sched()->shard_busy_us(i);
  }
  door.Shutdown();
  int64_t query_us = 0, shard_cycles = 0;
  for (int i = 0; i < door.sched()->num_shards(); ++i) {
    query_us += door.sched()->shard(i)->totals().total_query_us;
    shard_cycles += door.sched()->shard(i)->totals().cycles;
  }

  if (!report.error.empty()) out.Problem("client: " + report.error);
  for (const CheckResult& check :
       {CheckRowDeltas(before, after, report.acked_writes),
        CheckExactlyOnce(report.acks, report.stray_acks),
        CheckSameCount("committed transactions", report.committed,
                       program_commits)}) {
    if (!check.ok) out.Problem(check.detail);
  }

  out.attempted = report.sent;
  out.failed = report.failed;
  const Slices& slices = report.slices;
  const int n = slices.count();
  const int traced_from = n / 2;
  const std::vector<double> all = slices.Samples(0, n);
  std::printf("# %s: %lld acks in %d s; whole window: %.0f txn/s, p50 %.1f us, p99 %.1f us "
              "over %zu samples; send lag p99 %.1f us; %.3f requests per cycle (%lld cycles)\n",
              http ? "http-tenants-open" : "binary-pipelined-closed",
              static_cast<long long>(all.size()), n, static_cast<double>(all.size()) / n,
              Percentile(all, 0.5), Percentile(all, 0.99), all.size(),
              Percentile(report.send_lag_us, 0.99),
              static_cast<double>(w1.dispatched - w0.dispatched) /
                  static_cast<double>(std::max<int64_t>(w1.cycles - w0.cycles, 1)),
              static_cast<long long>(w1.cycles - w0.cycles));
  if (!options.trace) {
    out.Add("txn_per_s", slices.MedianRate(0, n), "txn/s");
    out.Add("lat_p50_us", slices.MedianPercentile(0, n, 0.50), "us");
    out.Add("lat_p99_us", slices.MedianPercentile(0, n, 0.99), "us");
    out.Add("cpu_us_per_txn", slices.MedianCpuUsPerUnit(0, n), "us/txn");
    out.Add("setup_s", setup_s, "s");
    return out;
  }

  const double all_txns = static_cast<double>(std::max<int64_t>(report.committed, 1));
  const double cycles = static_cast<double>(std::max<int64_t>(w1.cycles - w0.cycles, 1));
  const double requests_per_cycle = static_cast<double>(w1.dispatched - w0.dispatched) / cycles;
  if (http) {
    out.Add("net.http_parse_ns", ReplayHttpParse(report.captured_requests), "ns");
    out.Add("net.json_parse_ns", ReplayJsonParse(report.captured_bodies), "ns");
    out.Add("client.send_lag_us_p99", Percentile(report.send_lag_us, 0.99), "us");
  } else {
    out.Add("wire.decode_ns", ReplayWireDecode(report.captured_requests), "ns");
    out.Add("wire.frames_per_read", PrometheusMean(prometheus, "wire_frames_per_read"), "count");
  }
  out.Add("net.bytes_per_txn", static_cast<double>(report.bytes) / all_txns, "B/txn");
  out.Add("frontdoor.submit_mean_us", PrometheusMean(prometheus, "frontdoor_submit_latency_us"), "us");
  out.Add("frontdoor.dispatch_mean_us",
          PrometheusMean(prometheus, "frontdoor_dispatch_latency_us"), "us");
  out.Add("sched.requests_per_cycle", requests_per_cycle, "count");
  out.Add("sched.busy_us_per_txn", static_cast<double>(busy_us) / all_txns, "us/txn");
  out.Add("sched.query_us_per_cycle",
          static_cast<double>(query_us) / static_cast<double>(std::max<int64_t>(shard_cycles, 1)),
          "us");
  out.Add("sched.cycle_us", PrometheusMean(prometheus, "sched_cycle_us"), "us");
  out.Add("sched.coordination_us_per_txn", static_cast<double>(coordination_us) / all_txns,
          "us/txn");
  out.Add("sched.escrows_per_txn", static_cast<double>(fin.escrows) / all_txns, "count");
  out.Add("sched.mirrors_per_txn", static_cast<double>(fin.mirrors_applied) / all_txns, "count");
  const ExecuteReplay replay =
      ReplayExecute(dispatched, static_cast<int64_t>(std::llround(requests_per_cycle)));
  out.Add("server.execute_ns_per_stmt", replay.ns_per_stmt, "ns");
  out.Add("setup.table_build_ms", replay.table_build_ms, "ms");
  out.Add("setup.protocol_compile_ms", TimeProtocolCompileMs(fd), "ms");
  const double tracing_ns = static_cast<double>(report.capture_ns + drain_ns) +
                           ClockPairNs() * static_cast<double>(report.capture_spans + drain_spans);
  out.Add("trace.overhead_pct",
          100.0 * tracing_ns / (static_cast<double>(n - traced_from) * 1e9), "%");
  out.Add("client.lat_samples",
static_cast<double>(all.size()), "count");
  return out;
}

}  // namespace

RunResult RunHttpTenantsOpen(const RunOptions& options) {
  return RunNet(true, options);
}

RunResult RunBinaryPipelinedClosed(const RunOptions& options) {
  return RunNet(false, options);
}

}  // namespace perfbench
