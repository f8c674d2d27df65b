// Shared helpers for the benchmark harness: distributed-input builders,
// measured-vs-model table printing, and simulated runs.
//
// Every bench binary regenerates one table/figure/claim from the paper; its
// header comment and printed banner name which.  "Measured" numbers are the
// simulator's per-metric critical-path counts (Section 3 semantics); "model"
// numbers come from cost/model.hpp with constants 1, so the meaningful signal
// is the *ratio's stability across the sweep*, not the absolute value.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "qr3d.hpp"

namespace qr3d::bench {

/// Run `body` on a fresh P-rank machine and return the critical-path costs.
inline sim::CostClock measure(int P, const std::function<void(backend::Comm&)>& body,
                              sim::CostParams params = {}) {
  sim::Machine machine(P, std::move(params));
  machine.run(body);
  return machine.critical_path();
}

/// Run `body` on a fresh P-rank machine of the given backend kind and return
/// the wall-clock seconds of the run.  On the thread backend this is the
/// real measurement; on the simulator it is the host time spent simulating.
inline double measure_wall(backend::Kind kind, int P,
                           const std::function<void(backend::Comm&)>& body,
                           sim::CostParams params = {}) {
  auto machine = backend::make_machine(kind, P, std::move(params));
  machine->run(body);
  return machine->last_wall_seconds();
}

/// Shared `--backend=sim|thread` flag for the bench mains (default: sim).
/// Unknown --backend values fail loudly instead of silently simulating.
inline backend::Kind parse_backend(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--backend=thread") == 0) return backend::Kind::Thread;
    if (std::strcmp(argv[i], "--backend=sim") == 0) return backend::Kind::Simulated;
    if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      std::fprintf(stderr, "unknown %s (expected --backend=sim or --backend=thread)\n", argv[i]);
      std::exit(2);
    }
  }
  return backend::Kind::Simulated;
}

/// Value of `--name=value` or `--name value`, or `fallback` when absent.
inline const char* parse_flag(int argc, char** argv, const char* name,
                              const char* fallback = nullptr) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) != 0) continue;
    if (argv[i][len] == '=') return argv[i] + len + 1;
    if (argv[i][len] == '\0') {
      if (i + 1 < argc) return argv[i + 1];
      std::fprintf(stderr, "%s expects a value\n", name);
      std::exit(2);
    }
  }
  return fallback;
}

inline long parse_long_flag(int argc, char** argv, const char* name, long fallback) {
  const char* v = parse_flag(argc, argv, name);
  return v ? std::atol(v) : fallback;
}

/// Presence of a bare `--name` switch.
inline bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

/// q-th percentile (q in [0, 1]) by nearest-rank on a copy of the samples.
/// Delegates to obs::percentile — the shared, edge-hardened implementation
/// (empty input, single sample, q outside [0, 1], NaN q).
inline double percentile(std::vector<double> xs, double q) {
  return obs::percentile(std::move(xs), q);
}

// --- Minimal JSON writer for machine-readable bench output. -------------------
//
// The benches emit trajectory-tracking records (`--json out.json`, written
// as BENCH_<name>.json by CI) so runs can be diffed across PRs.  Scope is
// deliberately tiny: objects, arrays, numbers, strings, booleans, comma
// bookkeeping — nothing else.
//
// Every record starts with the shared envelope (see begin_bench_json):
//   { "schema": "qr3d-bench/1", "bench": <name>, "backend": <sim|thread>,
//     "kernel": <reference|blocked|blas>, ... }
// Bump kBenchSchema when a bench's fields change incompatibly, so trajectory
// tooling can refuse mixed comparisons instead of misreading them.

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{', '}'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('[', ']'); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(const std::string& k) {
    comma();
    append_string(k);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(double v) {
    comma();
    char buf[64];
    // %.17g round-trips doubles; trim the noise for typical bench numbers.
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& value(long v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<long>(v)); }
  JsonWriter& value(unsigned long long v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(const std::string& v) {
    comma();
    append_string(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }

  const std::string& str() const { return out_; }

  /// Write the document to `path`; returns false (with a stderr note) on
  /// I/O failure so benches can exit nonzero.
  bool write_file(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      return false;
    }
    const bool ok = std::fwrite(out_.data(), 1, out_.size(), f) == out_.size() &&
                    std::fputc('\n', f) != EOF;
    std::fclose(f);
    return ok;
  }

 private:
  JsonWriter& open(char c, char) {
    comma();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  void comma() {
    if (pending_value_) {
      pending_value_ = false;  // value right after key: no comma
      return;
    }
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  void append_string(const std::string& s) {
    out_ += '"';
    for (char ch : s) {
      switch (ch) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default: out_ += ch;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool fresh_ = true;       // just opened a container: no comma before first item
  bool pending_value_ = false;  // key emitted: next value takes no comma
};

/// Schema tag for all BENCH_*.json records (see the JsonWriter comment).
inline constexpr const char* kBenchSchema = "qr3d-bench/1";

/// Open the standard bench-record envelope: schema, bench name, backend and
/// active local-kernel family.  The caller fills the rest and closes the
/// object.  Pass "local" for benches that measure kernels without a machine.
inline JsonWriter& begin_bench_json(JsonWriter& json, const char* bench,
                                    const char* backend_name) {
  json.begin_object();
  json.key("schema").value(kBenchSchema);
  json.key("bench").value(bench);
  json.key("backend").value(backend_name);
  json.key("kernel").value(la::active_kernel_name());
  return json;
}
inline JsonWriter& begin_bench_json(JsonWriter& json, const char* bench, backend::Kind kind) {
  return begin_bench_json(json, bench, backend::kind_name(kind));
}

inline std::string secs(double s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3fms", s * 1e3);
  return buf;
}

/// This rank's rows of A under a row-cyclic layout (via DistMatrix).
inline la::Matrix cyclic_local(backend::Comm& comm, const la::Matrix& A) {
  return DistMatrix::local_of(comm, A.view(), Dist::CyclicRows);
}

/// Balanced block-row slice, rank 0 getting the top rows (via DistMatrix).
inline la::Matrix block_local(backend::Comm& comm, const la::Matrix& A) {
  return DistMatrix::local_of(comm, A.view(), Dist::BlockRows);
}

// --- Minimal fixed-width table printer. --------------------------------------

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& r : rows_)
      for (std::size_t i = 0; i < r.size() && i < widths.size(); ++i)
        widths[i] = std::max(widths[i], r[i].size());
    auto print_row = [&](const std::vector<std::string>& r) {
      std::printf("|");
      for (std::size_t i = 0; i < widths.size(); ++i)
        std::printf(" %-*s |", static_cast<int>(widths[i]), i < r.size() ? r[i].c_str() : "");
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (std::size_t w : widths) std::printf("%s|", std::string(w + 2, '-').c_str());
    std::printf("\n");
    for (const auto& r : rows_) print_row(r);
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string num(double x) {
  char buf[64];
  if (x == 0.0) return "0";
  if (std::abs(x) >= 1e5 || std::abs(x) < 10.0) {
    std::snprintf(buf, sizeof(buf), "%.3g", x);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", x);
  }
  return buf;
}

inline std::string ratio(double measured, double model) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", model == 0.0 ? 0.0 : measured / model);
  return buf;
}

inline void banner(const std::string& id, const std::string& title) {
  std::printf("=============================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("=============================================================\n\n");
}

}  // namespace qr3d::bench
