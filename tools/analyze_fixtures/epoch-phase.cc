// Analyze fixture: epoch-phase (crev_analyze --self-test).
// The driver opens a paint bracket before snapshotAuditSet pins the
// audit set -- the pass must report the ordering violation.
// Not compiled -- input for the self-test only.

namespace epfix {

struct Revoker
{
    void advance();
    void snapshotAuditSet();
    void tracePhaseBegin(int p);
    void tracePhaseEnd(int p);
    void finishEpoch();
    void doEpoch();
};

void
Revoker::doEpoch()
{
    advance();
    tracePhaseBegin(kPaint); // expect: epoch-phase (before snapshot)
    snapshotAuditSet();
    tracePhaseEnd(kPaint);
    finishEpoch();
}

} // namespace epfix
