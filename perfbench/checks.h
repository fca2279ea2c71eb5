// Correctness checks of the request-path benchmark.
//
// Every check compares what the program reports against a computation the
// benchmark makes on its own (from the inputs it generated and the
// acknowledgements it received), or against a property the protocol must
// have. None of them compares against a stored copy of earlier output.
// They are pure functions so that checks_test.cc can feed each one a
// corrupted input and see it fail.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct CheckResult {
  bool ok = true;
  std::string detail;  ///< first violation found (empty when ok)
};

/// Each row's value must have grown by exactly the number of acknowledged
/// writes the benchmark sent to it: after[i] - before[i] == writes[i].
CheckResult CheckRowDeltas(const std::vector<int64_t>& before,
                           const std::vector<int64_t>& after,
                           const std::vector<int64_t>& acked_writes);

/// Every request sent got exactly one acknowledgement: acks[k] == 1 for
/// every request k, and no acknowledgement arrived for a request that was
/// never sent (`stray_acks`).
CheckResult CheckExactlyOnce(const std::vector<uint8_t>& acks,
                             int64_t stray_acks);

/// A count the client kept must equal the program's own counter.
CheckResult CheckSameCount(const std::string& what, int64_t client_count,
                           int64_t program_count);

/// One dispatched operation, in the order the scheduler dispatched it.
struct DispatchEvent {
  enum Kind : uint8_t { kRead, kWrite, kCommit, kAbort };
  int64_t ta = 0;
  Kind kind = kRead;
  int64_t object = -1;  ///< -1 for commit/abort
};

/// Replays the dispatch order against per-object shared/exclusive locks
/// held until the transaction's commit or abort. The history is rigorous
/// (what strong strict 2PL promises) iff no operation conflicts with an
/// operation of another transaction that has not yet finished: a read must
/// not follow an unfinished write, and a write must not follow an
/// unfinished read or write, on the same object.
CheckResult CheckRigorous(const std::vector<DispatchEvent>& order);

/// After the closing flush every appended WAL record is durable.
CheckResult CheckDurable(uint64_t head_lsn, uint64_t durable_lsn);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
