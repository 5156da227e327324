// Package chaos is the fault-injection acceptance harness for the
// warpsimd daemon: it builds the real binary, runs it as a child
// process, and proves the durability contract under the failures that
// matter in production —
//
//   - SIGKILL mid-job: no acked and written result is lost, and
//     resubmitting the job the crash interrupted yields a manifest
//     byte-identical to a clean engine run (TestSIGKILLMidJobRecovers);
//   - on-disk corruption of a persisted result: the entry is quarantined
//     (moved, never deleted) while the daemon keeps serving, and the
//     re-run reproduces the original bytes (TestStoreCorruptionQuarantine);
//   - a full disk: persistence failures are counted, never acked away a
//     result or wedged the daemon, and persistence resumes once space
//     frees up (TestENOSPCPersistence, in-process via store.FaultFS).
//
// The package holds no production code; CI runs it as its own job
// (`go test -race ./internal/server/chaos`).
package chaos
