#include "checks.h"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

namespace {

CheckResult Fail(std::string detail) { return CheckResult{false, std::move(detail)}; }

}  // namespace

CheckResult CheckRowDeltas(const std::vector<int64_t>& before,
                           const std::vector<int64_t>& after,
                           const std::vector<int64_t>& acked_writes) {
  if (before.size() != after.size() || before.size() != acked_writes.size()) {
    return Fail("row snapshots and write counts differ in size");
  }
  for (size_t row = 0; row < before.size(); ++row) {
    const int64_t delta = after[row] - before[row];
    if (delta != acked_writes[row]) {
      return Fail("row " + std::to_string(row) + " grew by " +
                  std::to_string(delta) + " but received " +
                  std::to_string(acked_writes[row]) + " acknowledged writes");
    }
  }
  return {};
}

CheckResult CheckExactlyOnce(const std::vector<uint8_t>& acks,
                             int64_t stray_acks) {
  if (stray_acks != 0) {
    return Fail(std::to_string(stray_acks) +
                " acknowledgements for requests never sent");
  }
  for (size_t k = 0; k < acks.size(); ++k) {
    if (acks[k] != 1) {
      return Fail("request " + std::to_string(k) + " acknowledged " +
                  std::to_string(acks[k]) + " times");
    }
  }
  return {};
}

CheckResult CheckSameCount(const std::string& what, int64_t client_count,
                           int64_t program_count) {
  if (client_count == program_count) return {};
  return Fail(what + ": client counted " + std::to_string(client_count) +
              ", program reports " + std::to_string(program_count));
}

CheckResult CheckRigorous(const std::vector<DispatchEvent>& order) {
  struct ObjectLocks {
    int64_t writer = 0;  ///< 0 = no exclusive holder
    std::vector<int64_t> readers;
  };
  std::unordered_map<int64_t, ObjectLocks> locks;
  std::unordered_map<int64_t, std::vector<int64_t>> held;  // ta -> objects
  for (size_t i = 0; i < order.size(); ++i) {
    const DispatchEvent& e = order[i];
    if (e.kind == DispatchEvent::kCommit || e.kind == DispatchEvent::kAbort) {
      auto it = held.find(e.ta);
      if (it == held.end()) continue;
      for (int64_t object : it->second) {
        ObjectLocks& l = locks[object];
        if (l.writer == e.ta) l.writer = 0;
        l.readers.erase(std::remove(l.readers.begin(), l.readers.end(), e.ta),
                        l.readers.end());
      }
      held.erase(it);
      continue;
    }
    ObjectLocks& l = locks[e.object];
    const bool foreign_writer = l.writer != 0 && l.writer != e.ta;
    bool foreign_reader = false;
    for (int64_t r : l.readers) foreign_reader = foreign_reader || r != e.ta;
    if (foreign_writer || (e.kind == DispatchEvent::kWrite && foreign_reader)) {
      return Fail("dispatch #" + std::to_string(i) + ": " +
                  (e.kind == DispatchEvent::kWrite ? "write" : "read") +
                  " of object " + std::to_string(e.object) + " by txn " +
                  std::to_string(e.ta) +
                  " overlaps an unfinished conflicting operation of txn " +
                  std::to_string(foreign_writer ? l.writer : l.readers.front()));
    }
    if (e.kind == DispatchEvent::kWrite) {
      l.writer = e.ta;
    } else if (std::find(l.readers.begin(), l.readers.end(), e.ta) ==
               l.readers.end()) {
      l.readers.push_back(e.ta);
    }
    held[e.ta].push_back(e.object);
  }
  return {};
}

CheckResult CheckDurable(uint64_t head_lsn, uint64_t durable_lsn) {
  if (head_lsn == durable_lsn) return {};
  return Fail("durable lsn " + std::to_string(durable_lsn) +
              " behind head lsn " + std::to_string(head_lsn) +
              " after the closing flush");
}

}  // namespace perfbench
