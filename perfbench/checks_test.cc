// Self-test of the benchmark's correctness checks: each check accepts a
// clean input and rejects the corruption it exists to catch. Run with
// `python3 perfbench/run.py --self-test`; exits non-zero on any failure.

#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"

namespace {

using perfbench::CheckResult;
using perfbench::DispatchEvent;

int failures = 0;

void Expect(bool want_ok, const CheckResult& got, const char* name) {
  const bool pass = got.ok == want_ok;
  std::printf("%s %s%s%s\n", pass ? "PASS" : "FAIL", name,
              got.detail.empty() ? "" : " -- ", got.detail.c_str());
  if (!pass) ++failures;
}

DispatchEvent R(int64_t ta, int64_t object) {
  return {ta, DispatchEvent::kRead, object};
}
DispatchEvent W(int64_t ta, int64_t object) {
  return {ta, DispatchEvent::kWrite, object};
}
DispatchEvent C(int64_t ta) { return {ta, DispatchEvent::kCommit, -1}; }
DispatchEvent A(int64_t ta) { return {ta, DispatchEvent::kAbort, -1}; }

}  // namespace

int main() {
  // Row deltas: three rows, two writes to row 1 and one to row 2.
  const std::vector<int64_t> before = {5, 0, 7};
  const std::vector<int64_t> writes = {0, 2, 1};
  Expect(true, perfbench::CheckRowDeltas(before, {5, 2, 8}, writes),
         "row deltas match acknowledged writes");
  Expect(false, perfbench::CheckRowDeltas(before, {5, 1, 8}, writes),
         "row deltas reject a dropped write");
  Expect(false, perfbench::CheckRowDeltas(before, {5, 3, 8}, writes),
         "row deltas reject a write applied twice");

  // Acknowledgements.
  Expect(true, perfbench::CheckExactlyOnce({1, 1, 1}, 0),
         "one acknowledgement per request");
  Expect(false, perfbench::CheckExactlyOnce({1, 2, 1}, 0),
         "acks reject a double acknowledgement");
  Expect(false, perfbench::CheckExactlyOnce({1, 0, 1}, 0),
         "acks reject a lost acknowledgement");
  Expect(false, perfbench::CheckExactlyOnce({1, 1, 1}, 1),
         "acks reject an acknowledgement of an unsent request");

  // Counts.
  Expect(true, perfbench::CheckSameCount("commits", 42, 42), "equal counts");
  Expect(false, perfbench::CheckSameCount("commits", 42, 41),
         "counts reject a mismatch");

  // Rigorousness.
  Expect(true,
         perfbench::CheckRigorous({R(1, 10), R(2, 10), W(1, 11), C(1), C(2),
                                   W(3, 10), W(3, 11), C(3)}),
         "rigorous: shared reads, writes after commits");
  Expect(false, perfbench::CheckRigorous({W(1, 10), R(2, 10), C(1), C(2)}),
         "rigor rejects a read overlapping an uncommitted write");
  Expect(false, perfbench::CheckRigorous({R(1, 10), W(2, 10), C(1), C(2)}),
         "rigor rejects a write overlapping an uncommitted read");
  Expect(false, perfbench::CheckRigorous({W(1, 10), W(2, 10), C(1), C(2)}),
         "rigor rejects a write overlapping an uncommitted write");
  Expect(true, perfbench::CheckRigorous({W(1, 10), A(1), R(2, 10), C(2)}),
         "rigorous: read after the writer aborted");
  Expect(true, perfbench::CheckRigorous({R(1, 10), W(1, 10), C(1)}),
         "rigorous: a transaction upgrades its own read lock");

  // Durability.
  Expect(true, perfbench::CheckDurable(120, 120), "durable == head");
  Expect(false, perfbench::CheckDurable(120, 119),
         "durability rejects an unflushed tail");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
