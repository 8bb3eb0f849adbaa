// Run manifest: one small JSON document that makes every artifact
// self-describing — build type, gemm kernel tier, thread budget, seeds,
// config hash, final determinism digest, and whether the process exited
// cleanly. run_benches.sh embeds it into every BENCH_*.json so a number can
// always be traced back to the binary and configuration that produced it.
//
// Fields are a process-wide string/number registry with last-write-wins
// semantics: the scheduler registers thread_budget/jobs at configure time,
// simd_dispatch registers the resolved gemm kernel on first GEMM, the
// harness registers seed/config_hash/algorithm per run (a grid's manifest
// therefore reflects the *last* run to start — per-run detail lives in the
// trace; the manifest identifies the process). The session of
// obs::run_main (obs/session.h) writes the file at exit (clean=true) and
// from the crash-flush path (clean=false).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace fedl::obs {

// Last-write-wins, thread-safe. Numeric overloads keep JSON types honest.
void set_manifest_field(const std::string& key, const std::string& value);
void set_manifest_field(const std::string& key, const char* value);
void set_manifest_field(const std::string& key, std::uint64_t value);
void set_manifest_field(const std::string& key, double value);

// Snapshot of the registered fields, JSON-rendered values keyed by name
// (strings unescaped). Primarily for tests.
std::map<std::string, std::string> manifest_fields();

void clear_manifest_fields();  // test isolation

// {"schema":"fedl-manifest-v1","clean":...,"build_type":...,
//  "profiling_compiled":...,"final_digest":"<16-hex>","runs_digested":N,
//  "fields":{...}}  — final_digest is the XOR-combined per-run digest
// (obs/digest.h), "0000000000000000" when no run recorded one.
void write_manifest(std::ostream& os, bool clean);
void write_manifest_file(const std::string& path, bool clean);

}  // namespace fedl::obs
