#include "layers.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "bench_common.h"
#include "net/http.h"
#include "net/json.h"
#include "net/wire/wire_codec.h"
#include "server/database_server.h"

namespace perfbench {

namespace {

/// Passes over a capture until at least this much time was measured, so
/// short captures still give a stable mean.
constexpr int64_t kMinReplayNs = 200 * 1000 * 1000;
constexpr int kMaxPasses = 50;

/// Runs `pass` (which returns items processed) until kMinReplayNs elapsed;
/// returns ns per item.
template <typename Pass>
double TimePasses(Pass pass) {
  int64_t items = 0;
  const int64_t t0 = NowNs();
  int64_t elapsed = 0;
  for (int i = 0; i < kMaxPasses && elapsed < kMinReplayNs; ++i) {
    items += pass();
    elapsed = NowNs() - t0;
  }
  return items > 0 ? static_cast<double>(elapsed) / static_cast<double>(items) : 0;
}

}  // namespace

ExecuteReplay ReplayExecute(const declsched::scheduler::RequestBatch& dispatched,
                            int64_t batch_size) {
  ExecuteReplay out;
  const int64_t t0 = NowNs();
  declsched::server::DatabaseServer::Config config;
  config.num_rows = kRows;
  config.materialize_rows = true;
  declsched::server::DatabaseServer server(config);
  out.table_build_ms = static_cast<double>(NowNs() - t0) / 1e6;

  batch_size = std::max<int64_t>(batch_size, 1);
  std::vector<declsched::server::StatementBatch> batches;
  for (size_t i = 0; i < dispatched.size(); i += static_cast<size_t>(batch_size)) {
    declsched::server::StatementBatch batch;
    const size_t end = std::min(dispatched.size(), i + static_cast<size_t>(batch_size));
    for (size_t j = i; j < end; ++j) batch.push_back(dispatched[j].ToStatement());
    batches.push_back(std::move(batch));
  }
  out.ns_per_stmt = TimePasses([&] {
    int64_t statements = 0;
    for (const auto& batch : batches) {
      if (server.ExecuteBatch(batch).ok()) statements += static_cast<int64_t>(batch.size());
    }
    return statements;
  });
  return out;
}

double ReplayHttpParse(const std::vector<std::string>& requests) {
  return TimePasses([&] {
    declsched::net::HttpRequestParser parser;
    declsched::net::HttpRequest request;
    int64_t parsed = 0;
    for (const std::string& bytes : requests) {
      parser.Feed(bytes);
      if (parser.Next(&request) == declsched::net::HttpRequestParser::Outcome::kRequest) {
        ++parsed;
      }
    }
    return parsed;
  });
}

double ReplayJsonParse(const std::vector<std::string>& bodies) {
  return TimePasses([&] {
    int64_t parsed = 0;
    for (const std::string& body : bodies) {
      if (declsched::net::JsonValue::Parse(body).ok()) ++parsed;
    }
    return parsed;
  });
}

double ReplayWireDecode(const std::vector<std::string>& frames) {
  namespace wire = declsched::net::wire;
  return TimePasses([&] {
    wire::FrameParser parser;
    wire::WireFrame frame;
    wire::WireSubmit submit;
    int64_t decoded = 0;
    for (const std::string& bytes : frames) {
      parser.Feed(bytes);
      if (parser.Next(&frame) == wire::FrameParser::Outcome::kFrame &&
          wire::DecodeSubmitBody(frame.body, &submit).ok()) {
        ++decoded;
      }
    }
    return decoded;
  });
}

double PrometheusMean(const std::string& text, const std::string& family) {
  double sum = 0, count = 0;
  std::istringstream lines(text);
  std::string line;
  auto value_of = [](const std::string& l) {
    return std::strtod(l.c_str() + l.rfind(' ') + 1, nullptr);
  };
  // A sample line is `<series>[{labels}] <value>`.
  auto is_series = [](const std::string& l, const std::string& series) {
    return l.compare(0, series.size(), series) == 0 && l.size() > series.size() &&
           (l[series.size()] == ' ' || l[series.size()] == '{');
  };
  while (std::getline(lines, line)) {
    if (is_series(line, family + "_sum")) sum += value_of(line);
    if (is_series(line, family + "_count")) count += value_of(line);
  }
  return count > 0 ? sum / count : 0;
}

}  // namespace perfbench
