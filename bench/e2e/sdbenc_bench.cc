// Repo benchmark driver: runs one workload of the end-to-end benchmark in
// this process and prints what it measured as JSON lines.
//
//   sdbenc_bench --workload=NAME --seed=S --seconds=T --workdir=DIR
//                [--trace=FILE] [--smoke]
//
// Workloads (README.md gives the reason for each and its sizes):
//   wire_point_hot   closed loop, 2 connections x depth 16, 2 tenants whose
//                    tables fit the decrypted-block cache
//   wire_mixed_cold  open loop, Poisson arrivals at a fixed rate, 90/5/5
//                    point/range/update over a table larger than the cache
//   scan_report      embedded, one 16-statement report per op over a table
//                    larger than the cache
//   durable_ingest   embedded, file-backed with the WAL on, one
//                    16-statement transaction + CommitDurable() per op
//
// Every input comes from --seed. Each workload is set up several times
// (setup_s is the median), warmed up untimed, then measured for --seconds.
// With --trace the window is split: the first half runs untraced and gives
// the counters, the second half records the driver's own spans around its
// calls into the program (the program's tracer stays off), writes them to
// FILE as a Chrome trace and reports span self-time medians.
//
// Output, one object per line:
//   {"metric":"op_p50_us","value":812.5,"unit":"us","kind":"e2e",
//    "samples":120345,"base":{...}}
//   ...
//   {"summary":{"attempted":N,"failed":F,"correct":true,...}}
// A failed statement is counted, never fatal; the exit code is non-zero
// only when the workload cannot be set up or run at all.

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aead/factory.h"
#include "core/secure_database.h"
#include "net/client/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "query/sql_parser.h"
#include "util/rng.h"

namespace sdbenc {
namespace e2e {
namespace {

// ------------------------------------------------------------- statistics

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double NsToUs(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Durations in a log-linear histogram: exact below 128 ns, then 128 equal
/// sub-buckets per power of two (under 0.8 % apart). Memory stays constant
/// however many ops a run completes, so the driver's own footprint does not
/// move peak_rss_mb with throughput.
class Histo {
 public:
  void Add(uint64_t ns) {
    if (buckets_.empty()) buckets_.resize(kNumBuckets);
    ++buckets_[Index(ns)];
    ++count_;
  }

  void Merge(const Histo& o) {
    if (o.count_ == 0) return;
    if (buckets_.empty()) buckets_.resize(kNumBuckets);
    for (size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }

  uint64_t count() const { return count_; }

  /// The pct-th percentile in microseconds (0 when empty), interpolated
  /// linearly inside the bucket that holds it.
  double PercentileUs(double pct) const {
    if (count_ == 0) return 0.0;
    const double target = pct / 100.0 * static_cast<double>(count_);
    double below = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      const double n = static_cast<double>(buckets_[i]);
      if (n == 0) continue;
      if (below + n >= target) {
        const auto [lo, width] = Bounds(i);
        return (lo + width * (target - below) / n) / 1e3;
      }
      below += n;
    }
    const auto [lo, width] = Bounds(kNumBuckets - 1);
    return (lo + width) / 1e3;
  }

 private:
  static constexpr size_t kSubBits = 7;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr size_t kNumBuckets = (64 - kSubBits + 1) * kSub;

  static size_t Index(uint64_t ns) {
    if (ns < kSub) return ns;
    const size_t e = 63 - std::countl_zero(ns);  // >= kSubBits
    return ((e - kSubBits + 1) << kSubBits) +
           ((ns >> (e - kSubBits)) & (kSub - 1));
  }

  /// (lower bound, width) of bucket i, in ns.
  static std::pair<double, double> Bounds(size_t i) {
    if (i < kSub) return {static_cast<double>(i), 1.0};
    const size_t e = (i >> kSubBits) + kSubBits - 1;
    const double width = std::ldexp(1.0, static_cast<int>(e - kSubBits));
    return {static_cast<double>(kSub + (i & (kSub - 1))) * width, width};
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ----------------------------------------------------------------- output

struct BaseCount {
  const char* key;
  double value;
};

/// Prints one metric line. `samples` is the number of observations behind
/// the value (ops for a rate, latency samples for a percentile, 1 for a
/// size); `base` carries the counts a ratio was formed from.
void EmitMetric(const std::string& name, double value, const char* unit,
                const char* kind, double samples,
                std::initializer_list<BaseCount> base = {}) {
  char buf[96];
  std::string line = "{\"metric\":\"" + name + "\"";
  std::snprintf(buf, sizeof(buf), ",\"value\":%.10g",
                std::isfinite(value) ? value : 0.0);
  line += buf;
  line += ",\"unit\":\"" + std::string(unit) + "\",\"kind\":\"" + kind + "\"";
  std::snprintf(buf, sizeof(buf), ",\"samples\":%.0f,\"base\":{", samples);
  line += buf;
  bool first = true;
  for (const BaseCount& b : base) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.10g", first ? "" : ",", b.key,
                  std::isfinite(b.value) ? b.value : 0.0);
    line += buf;
    first = false;
  }
  line += "}}";
  std::puts(line.c_str());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

// --------------------------------------------------------------- registry

/// Deltas of the program's own obs::Registry() counters and histograms
/// across the measured window. Histogram means are sum/count deltas: the
/// log2 buckets are too coarse for a median.
class RegistryWindow {
 public:
  void Begin() { before_ = obs::Registry().Snapshot(); }
  void End() { after_ = obs::Registry().Snapshot(); }

  double Counter(const std::string& name) const {
    return Delta(name, &obs::MetricValue::counter_value);
  }
  double HistCount(const std::string& name) const {
    return Delta(name, &obs::MetricValue::hist_count);
  }
  double HistSum(const std::string& name) const {
    return Delta(name, &obs::MetricValue::hist_sum);
  }

 private:
  double Delta(const std::string& name,
               uint64_t obs::MetricValue::*field) const {
    const obs::MetricValue* a = after_.Find(name);
    const obs::MetricValue* b = before_.Find(name);
    return static_cast<double>((a == nullptr ? 0 : a->*field) -
                               (b == nullptr ? 0 : b->*field));
  }

  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

// ------------------------------------------------------------------ spans

enum SpanKind : uint8_t { kOp, kParse, kExecute, kCommit, kSend, kWait };
constexpr size_t kNumSpanKinds = 6;
constexpr const char* kSpanNames[kNumSpanKinds] = {
    "op", "parse", "execute", "commit", "send", "wait"};

struct Span {
  SpanKind kind;
  uint64_t start_ns;
  uint64_t end_ns;
};

/// One thread's spans, kept in memory until the run ends. Children of an
/// op never overlap, so the op's self time is its duration minus theirs
/// and each child (a leaf) is all self time. Only the first ops of each
/// thread go to the Chrome trace, which keeps the file small.
class SpanBuffer {
 public:
  static constexpr size_t kChromeOpsPerThread = 400;

  void RecordOp(uint64_t start_ns, uint64_t end_ns,
                const std::vector<Span>& children) {
    uint64_t covered = 0;
    for (const Span& c : children) {
      covered += c.end_ns - c.start_ns;
      self_[c.kind].Add(c.end_ns - c.start_ns);
    }
    const uint64_t dur = end_ns - start_ns;
    self_[kOp].Add(dur > covered ? dur - covered : 0);
    op_ns_ += static_cast<double>(dur);
    child_ns_ += static_cast<double>(covered);
    if (chrome_ops_ < kChromeOpsPerThread) {
      ++chrome_ops_;
      chrome_.push_back({kOp, start_ns, end_ns});
      chrome_.insert(chrome_.end(), children.begin(), children.end());
    }
  }

  const Histo& self(SpanKind kind) const { return self_[kind]; }
  double op_ns() const { return op_ns_; }
  double child_ns() const { return child_ns_; }
  const std::vector<Span>& chrome() const { return chrome_; }

 private:
  std::array<Histo, kNumSpanKinds> self_;
  double op_ns_ = 0;
  double child_ns_ = 0;
  size_t chrome_ops_ = 0;
  std::vector<Span> chrome_;
};

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanBuffer>& buffers,
                      uint64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (size_t tid = 0; tid < buffers.size(); ++tid) {
    for (const Span& s : buffers[tid].chrome()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   first ? "" : ",", kSpanNames[s.kind], tid,
                   NsToUs(s.start_ns - origin_ns),
                   NsToUs(s.end_ns - s.start_ns));
      first = false;
    }
  }
  std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", f);
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------- workloads

/// What one measured phase of a workload produced. Op latencies are kept
/// for the whole window and per time slice (by completion time): the
/// end-to-end percentiles are medians over the slices, so a stall in one
/// part of the window moves one slice, not the result.
struct PhaseStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  Histo op;
  std::vector<Histo> op_slices;
  std::map<std::string, Histo> by_class;  // per statement class
  Histo parse;
  Histo lag;  // open-loop sender lateness
  uint64_t rows_returned = 0;
  uint64_t user_bytes_written = 0;
  uint64_t commits = 0;
  std::vector<std::string> errors;  // first few, for the summary

  /// Sets the window that AddOp() slices, [t_begin, t_begin + seconds).
  void Begin(uint64_t t_begin, double seconds, size_t slices) {
    t_begin_ = t_begin;
    slice_ns_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(seconds * 1e9 / static_cast<double>(slices)));
    op_slices.assign(slices, Histo());
  }

  void AddOp(uint64_t end_ns, uint64_t dur_ns) {
    op.Add(dur_ns);
    const uint64_t i = (end_ns - t_begin_) / slice_ns_;
    op_slices[std::min<uint64_t>(i, op_slices.size() - 1)].Add(dur_ns);
  }

  void Fail(std::string why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(why));
  }

  void Merge(const PhaseStats& o) {
    attempted += o.attempted;
    failed += o.failed;
    op.Merge(o.op);
    if (op_slices.size() < o.op_slices.size()) {
      op_slices.resize(o.op_slices.size());
    }
    for (size_t i = 0; i < o.op_slices.size(); ++i) {
      op_slices[i].Merge(o.op_slices[i]);
    }
    for (const auto& [k, h] : o.by_class) by_class[k].Merge(h);
    parse.Merge(o.parse);
    lag.Merge(o.lag);
    rows_returned += o.rows_returned;
    user_bytes_written += o.user_bytes_written;
    commits += o.commits;
    for (const std::string& e : o.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }

  /// Median over the non-empty slices of each slice's percentile.
  double SlicedPercentileUs(double pct) const {
    std::vector<double> v;
    for (const Histo& h : op_slices) {
      if (h.count() > 0) v.push_back(h.PercentileUs(pct));
    }
    return Median(v);
  }

 private:
  uint64_t t_begin_ = 0;
  uint64_t slice_ns_ = 1;
};

/// Storage footprint of a file-backed session after its final Flush():
/// the page file's size over the plaintext bytes of the live rows (the
/// paper's §4 storage overhead, measured in place). Memory-backed
/// workloads leave it empty.
struct Footprint {
  double file_bytes = 0;
  double user_bytes = 0;
};

/// Full-size inputs, or tiny ones for the smoke check.
struct Sizes {
  bool smoke = false;
  size_t Pick(size_t full, size_t tiny) const { return smoke ? tiny : full; }
  double WarmupSeconds(double full) const { return smoke ? 0.1 : full; }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the workload's database from scratch and returns the seconds
  /// the program took (generating the input rows is not counted).
  /// Teardown() releases the previous one first, untimed.
  virtual StatusOr<double> Setup() = 0;
  virtual void Teardown() = 0;
  /// Untimed: fills caches and lets lazy set-up finish.
  virtual Status Warmup() = 0;
  /// Measures for `seconds`; records spans into `spans` when non-null.
  virtual PhaseStats Run(double seconds, std::vector<SpanBuffer>* spans) = 0;
  /// Post-run correctness checks and storage accounting.
  virtual Status Finish(Footprint* footprint) = 0;

  virtual size_t setup_repeats() const = 0;
  /// Time slices the window is cut into for the latency percentiles; 1
  /// where an op is too long for a slice to hold enough of them.
  virtual size_t slices() const = 0;
  /// The tail percentile reported as op_tail_us: the highest of
  /// p99/p95/p90/p75 that keeps at least ten samples beyond it per slice
  /// and repeats across runs within the metric's bound (README.md).
  virtual double tail_pct() const = 0;
};

// Generated values: "v<id>.<version>." padded to a fixed length, so a reader
// can check a returned value belongs to the row it was read from no matter
// which update it saw last.
std::string ValueText(int64_t id, uint64_t version, size_t len) {
  std::string s =
      "v" + std::to_string(id) + "." + std::to_string(version) + ".";
  s.resize(std::max(len, s.size()),
           static_cast<char>('a' + (static_cast<uint64_t>(id) + version) % 26));
  return s;
}

bool ValueMatches(const Value& v, int64_t id, size_t len) {
  if (v.type() != ValueType::kString) return false;
  const std::string& s = v.AsString();
  const std::string prefix = "v" + std::to_string(id) + ".";
  return s.size() == len && s.compare(0, prefix.size(), prefix) == 0;
}

bool IsInt(const Value& v, int64_t want) {
  return v.type() == ValueType::kInt64 && v.AsInt() == want;
}

Bytes MasterKey(uint64_t seed, uint64_t tenant) {
  DeterministicRng rng(seed * 0x9e3779b97f4a7c15ull + tenant + 1);
  return rng.RandomBytes(32);
}

std::string PointSql(const char* table, const char* columns, int64_t id) {
  return std::string("SELECT ") + columns + " FROM " + table +
         " WHERE id = " + std::to_string(id);
}

std::string RangeSql(const char* table, const char* columns, int64_t lo,
                     int64_t hi) {
  return std::string("SELECT ") + columns + " FROM " + table +
         " WHERE id >= " + std::to_string(lo) + " AND id <= " +
         std::to_string(hi);
}

std::string UpdateSql(const char* table, int64_t id, const std::string& val) {
  return std::string("UPDATE ") + table + " SET val = '" + val +
         "' WHERE id = " + std::to_string(id);
}

/// Times ParseSql on statements of the mix (wire workloads parse in the
/// server, out of the driver's reach).
Histo TimeParse(const std::vector<std::string>& sqls) {
  Histo h;
  for (const std::string& sql : sqls) {
    const uint64_t t0 = obs::NowNs();
    StatusOr<ParsedStatement> parsed = ParseSql(sql);
    const uint64_t t1 = obs::NowNs();
    if (parsed.ok()) h.Add(t1 - t0);
  }
  return h;
}

// ---------------------------------------------------------- wire helpers

/// An in-process server whose tenants each hold one `kv(id, val)` table,
/// plus the driver's connections to it (HELLO done).
class WireFixture {
 public:
  /// Starts the server, connects, and sends each tenant's first query,
  /// which opens it and bulk-loads its table. Returns the seconds taken.
  StatusOr<double> Start(uint64_t seed, size_t tenants, size_t rows,
                         size_t val_len, size_t connections) {
    tenants_ = tenants;
    loads_.assign(tenants, {});
    for (size_t t = 0; t < tenants; ++t) {
      loads_[t].reserve(rows);
      for (size_t i = 0; i < rows; ++i) {
        const int64_t id = static_cast<int64_t>(i);
        loads_[t].push_back(
            {Value::Int(id), Value::Str(ValueText(id, seed + t, val_len))});
      }
    }
    const uint64_t t0 = obs::NowNs();
    net::ServerOptions options;
    // Admission control off: a statement that queues behind a stall shows
    // up in the latency it pays instead of as an overload refusal.
    options.max_inflight_per_tenant = 0;
    for (size_t t = 0; t < tenants; ++t) {
      net::TenantConfig tenant;
      tenant.name = "t" + std::to_string(t);
      tenant.master_key = MasterKey(seed, t);
      tenant.rng_seed = seed + t;
      tenant.bootstrap = [this, t](SecureDatabase* db) {
        SecureTableOptions table;
        table.indexed_columns = {"id"};
        table.index_order = 16;
        SDBENC_RETURN_IF_ERROR(db->CreateTable(
            "kv", Schema({{"id", ValueType::kInt64, true},
                          {"val", ValueType::kString, true}}),
            table));
        return db->BulkInsert("kv", loads_[t]);
      };
      options.tenants.push_back(std::move(tenant));
    }
    SDBENC_ASSIGN_OR_RETURN(server_, net::Server::Start(std::move(options)));
    for (size_t c = 0; c < connections; ++c) {
      SDBENC_ASSIGN_OR_RETURN(
          std::unique_ptr<net::Client> client,
          net::Client::Connect("127.0.0.1", server_->port()));
      SDBENC_RETURN_IF_ERROR(client->Hello("t" + std::to_string(c % tenants),
                                           MasterKey(seed, c % tenants)));
      clients_.push_back(std::move(client));
    }
    // The first query opens the tenant and runs its bootstrap.
    for (size_t t = 0; t < tenants && t < connections; ++t) {
      SDBENC_ASSIGN_OR_RETURN(net::WireResult r,
                              clients_[t]->Query(PointSql("kv", "id, val", 0)));
      if (r.rows.size() != 1) return InternalError("bootstrap row missing");
    }
    const double seconds = static_cast<double>(obs::NowNs() - t0) / 1e9;
    loads_.clear();
    return seconds;
  }

  void Stop() {
    for (auto& c : clients_) (void)c->Bye();
    clients_.clear();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
  }

  net::Client& client(size_t c) { return *clients_[c]; }

 private:
  size_t tenants_ = 0;
  std::vector<std::vector<std::vector<Value>>> loads_;  // per tenant
  std::unique_ptr<net::Server> server_;
  std::vector<std::unique_ptr<net::Client>> clients_;
};

/// Checks one point response: exactly the requested row.
bool PointRowOk(const net::WireResult& r, int64_t id, size_t val_len) {
  return r.rows.size() == 1 && r.rows[0].size() == 2 &&
         IsInt(r.rows[0][0], id) && ValueMatches(r.rows[0][1], id, val_len);
}

/// Checks one range response: exactly ids lo..hi, each with its value.
bool RangeRowsOk(const net::WireResult& r, int64_t lo, int64_t hi,
                 size_t val_len) {
  if (r.rows.size() != static_cast<size_t>(hi - lo + 1)) return false;
  std::vector<int64_t> ids;
  for (const auto& row : r.rows) {
    if (row.size() != 2 || row[0].type() != ValueType::kInt64) return false;
    const int64_t id = row[0].AsInt();
    if (!ValueMatches(row[1], id, val_len)) return false;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != lo + static_cast<int64_t>(i)) return false;
  }
  return true;
}

// ---------------------------------------------------------- wire_point_hot

/// Closed loop: each connection sends a burst of kDepth point SELECTs in
/// one send(), reads the kDepth responses, and repeats. Every table fits
/// the decrypted cache, so the time goes to the network path, the pool
/// hand-off and parsing, not to crypto.
class WirePointHot : public Workload {
 public:
  static constexpr size_t kTenants = 2;
  static constexpr size_t kConnections = 2;
  static constexpr size_t kDepth = 16;
  static constexpr size_t kValLen = 64;

  WirePointHot(uint64_t seed, Sizes sizes)
      : seed_(seed),
        rows_(sizes.Pick(8000, 400)),
        warm_s_(sizes.WarmupSeconds(0.5)) {}

  StatusOr<double> Setup() override {
    return fixture_.Start(seed_, kTenants, rows_, kValLen, kConnections);
  }
  void Teardown() override { fixture_.Stop(); }

  Status Warmup() override {
    for (size_t c = 0; c < kConnections; ++c) {
      std::vector<std::string> batch;
      for (size_t id = 0; id < rows_; ++id) {
        batch.push_back(PointSql("kv", "id, val", static_cast<int64_t>(id)));
        if (batch.size() == 512 || id + 1 == rows_) {
          SDBENC_RETURN_IF_ERROR(fixture_.client(c).Batch(batch).status());
          batch.clear();
        }
      }
    }
    const PhaseStats warm = Run(warm_s_, nullptr);
    return warm.failed == 0 ? OkStatus()
                            : InternalError("warm-up statements failed");
  }

  PhaseStats Run(double seconds, std::vector<SpanBuffer>* spans) override {
    ++phase_;
    if (spans != nullptr) spans->assign(kConnections, SpanBuffer());
    std::vector<PhaseStats> per(kConnections);
    const uint64_t t_begin = obs::NowNs();
    const uint64_t deadline = t_begin + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      per[c].Begin(t_begin, seconds, slices());
      threads.emplace_back([&, c] {
        Drive(c, deadline, &per[c],
              spans == nullptr ? nullptr : &(*spans)[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    PhaseStats out;
    out.wall_s = static_cast<double>(obs::NowNs() - t_begin) / 1e9;
    for (const PhaseStats& p : per) out.Merge(p);
    std::vector<std::string> sample;
    DeterministicRng rng(seed_ + 77);
    for (size_t i = 0; i < 2000; ++i) {
      sample.push_back(PointSql(
          "kv", "id, val", static_cast<int64_t>(rng.UniformUint64(rows_))));
    }
    out.parse = TimeParse(sample);
    return out;
  }

  Status Finish(Footprint*) override {
    fixture_.Stop();
    return OkStatus();
  }

  size_t setup_repeats() const override { return 5; }
  size_t slices() const override { return 10; }
  double tail_pct() const override { return 95; }

 private:
  void Drive(size_t c, uint64_t deadline, PhaseStats* st, SpanBuffer* sb) {
    net::Client& client = fixture_.client(c);
    DeterministicRng rng(seed_ * 131 + c * 7 + phase_ * 1009);
    std::vector<std::string> burst(kDepth);
    std::vector<int64_t> keys(kDepth);
    std::vector<Span> children;
    while (obs::NowNs() < deadline) {
      for (size_t i = 0; i < kDepth; ++i) {
        keys[i] = static_cast<int64_t>(rng.UniformUint64(rows_));
        burst[i] = PointSql("kv", "id, val", keys[i]);
      }
      const uint64_t t0 = obs::NowNs();
      StatusOr<std::vector<uint32_t>> ids = client.SendQueries(burst);
      const uint64_t t_sent = obs::NowNs();
      st->attempted += kDepth;
      if (!ids.ok()) {
        for (size_t i = 0; i < kDepth; ++i) st->Fail(ids.status().ToString());
        return;
      }
      for (size_t n = 0; n < kDepth; ++n) {
        StatusOr<net::Response> r = client.ReadResponse();
        const uint64_t t1 = obs::NowNs();
        if (!r.ok()) {
          for (size_t i = n; i < kDepth; ++i) st->Fail(r.status().ToString());
          return;
        }
        const size_t i = r->request_id - (*ids)[0];
        if (i >= kDepth || !r->ok() ||
            !PointRowOk(r->result, keys[i], kValLen)) {
          st->Fail(r->ok() ? "wrong point result" : r->error.message);
          continue;
        }
        st->rows_returned += r->result.rows.size();
        st->AddOp(t1, t1 - t0);
        if (sb != nullptr) {
          children.assign({{kSend, t0, t_sent}, {kWait, t_sent, t1}});
          sb->RecordOp(t0, t1, children);
        }
      }
    }
  }

  const uint64_t seed_;
  const size_t rows_;
  const double warm_s_;
  uint64_t phase_ = 0;
  WireFixture fixture_;
};

// --------------------------------------------------------- wire_mixed_cold

/// Open loop: each connection has its own Poisson arrival stream (the two
/// add up to the offered rate), a sender thread that sends whatever is due,
/// and a receiver thread. Latency counts from each statement's scheduled
/// send time, so a stall also charges the statements queued behind it;
/// gen.lag_us_p99 reports how late the sender ran.
class WireMixedCold : public Workload {
 public:
  static constexpr size_t kConnections = 2;
  static constexpr size_t kValLen = 200;
  static constexpr int64_t kRangeRows = 32;

  WireMixedCold(uint64_t seed, Sizes sizes)
      : seed_(seed),
        rows_(sizes.Pick(400000, 2000)),
        rate_(static_cast<double>(sizes.Pick(20000, 2000))),
        warm_s_(sizes.WarmupSeconds(1.0)) {}

  StatusOr<double> Setup() override {
    return fixture_.Start(seed_, 1, rows_, kValLen, kConnections);
  }
  void Teardown() override { fixture_.Stop(); }

  Status Warmup() override {
    // Sweep the table once in 32-row ranges: fills the decrypted cache to
    // capacity so the measured window sees its steady-state hit rate.
    const int64_t n = static_cast<int64_t>(rows_);
    std::vector<std::string> batch;
    std::vector<int64_t> los;
    for (int64_t lo = 0; lo < n; lo += kRangeRows) {
      batch.push_back(RangeSql("kv", "id, val", lo, RangeEnd(lo)));
      los.push_back(lo);
      if (batch.size() < 64 && RangeEnd(lo) + 1 < n) continue;
      SDBENC_ASSIGN_OR_RETURN(std::vector<net::BatchItem> items,
                              fixture_.client(0).Batch(batch));
      for (size_t i = 0; i < items.size(); ++i) {
        if (!items[i].ok ||
            !RangeRowsOk(items[i].result, los[i], RangeEnd(los[i]),
                         kValLen)) {
          return InternalError("warm-up range sweep returned wrong rows");
        }
      }
      batch.clear();
      los.clear();
    }
    const PhaseStats warm = Run(warm_s_, nullptr);
    return warm.failed == 0 ? OkStatus()
                            : InternalError("warm-up statements failed");
  }

  PhaseStats Run(double seconds, std::vector<SpanBuffer>* spans) override {
    ++phase_;
    if (spans != nullptr) spans->assign(kConnections, SpanBuffer());
    std::vector<Plan> plans(kConnections);
    for (size_t c = 0; c < kConnections; ++c) {
      MakePlan(c, seconds, &plans[c]);
    }
    std::vector<std::string> sample;
    for (size_t i = 0; i < plans[0].stmts.size() && i < 2000; ++i) {
      sample.push_back(plans[0].stmts[i].sql);
    }
    std::vector<PhaseStats> per(kConnections);
    std::vector<PhaseStats> lag(kConnections);
    const uint64_t t_begin = obs::NowNs() + 2000000;  // threads start first
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      per[c].Begin(t_begin, seconds, slices());
      threads.emplace_back([&, c] { Send(c, &plans[c], t_begin, &lag[c]); });
      threads.emplace_back([&, c] {
        Receive(c, &plans[c], t_begin, &per[c],
                spans == nullptr ? nullptr : &(*spans)[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    PhaseStats out;
    out.wall_s =
        std::max(seconds, static_cast<double>(obs::NowNs() - t_begin) / 1e9);
    for (size_t c = 0; c < kConnections; ++c) {
      out.Merge(per[c]);
      out.Merge(lag[c]);
    }
    out.parse = TimeParse(sample);
    return out;
  }

  Status Finish(Footprint*) override {
    fixture_.Stop();
    return OkStatus();
  }

  size_t setup_repeats() const override { return 3; }
  size_t slices() const override { return 10; }
  double tail_pct() const override { return 90; }

 private:
  enum Kind : uint8_t { kPoint, kRange, kUpdate };
  struct Stmt {
    uint64_t due_ns;  // offset from the phase start
    Kind kind;
    int64_t key;
    std::string sql;
  };
  /// Bit of Plan::progress set once the sender has sent all it will.
  static constexpr uint64_t kDone = uint64_t{1} << 63;
  /// One connection's schedule plus the hand-off from its sender to its
  /// receiver. The sender publishes each statement's send times before the
  /// receiver can see the response, and the receiver spins the few
  /// nanoseconds that ordering may still take.
  struct Plan {
    std::vector<Stmt> stmts;
    std::unique_ptr<std::atomic<uint64_t>[]> send_start;
    std::unique_ptr<std::atomic<uint64_t>[]> send_end;
    std::atomic<uint32_t> base_id{0};
    /// Statements sent so far, | kDone at the end; the receiver sleeps on
    /// it while nothing is outstanding.
    std::atomic<uint64_t> progress{0};
  };

  int64_t RangeEnd(int64_t lo) const {
    return std::min<int64_t>(lo + kRangeRows, static_cast<int64_t>(rows_)) - 1;
  }

  void MakePlan(size_t c, double seconds, Plan* plan) {
    DeterministicRng rng(seed_ * 7919 + c * 31 + phase_ * 104729);
    const double per_conn_rate = rate_ / kConnections;
    double t = 0;
    while (true) {
      const double u =
          (static_cast<double>(rng.Next() >> 11) + 0.5) / 9007199254740992.0;
      t += -std::log(u) / per_conn_rate;
      if (t >= seconds) break;
      Stmt s;
      s.due_ns = static_cast<uint64_t>(t * 1e9);
      const uint64_t pick = rng.UniformUint64(100);
      if (pick < 90) {
        s.kind = kPoint;
        s.key = static_cast<int64_t>(rng.UniformUint64(rows_));
        s.sql = PointSql("kv", "id, val", s.key);
      } else if (pick < 95) {
        s.kind = kRange;
        s.key = static_cast<int64_t>(rng.UniformUint64(rows_ - kRangeRows));
        s.sql = RangeSql("kv", "id, val", s.key, s.key + kRangeRows - 1);
      } else {
        s.kind = kUpdate;
        s.key = static_cast<int64_t>(rng.UniformUint64(rows_));
        s.sql =
            UpdateSql("kv", s.key, ValueText(s.key, ++last_version_, kValLen));
      }
      plan->stmts.push_back(std::move(s));
    }
    const size_t n = plan->stmts.size();
    plan->send_start = std::make_unique<std::atomic<uint64_t>[]>(n);
    plan->send_end = std::make_unique<std::atomic<uint64_t>[]>(n);
  }

  void Send(size_t c, Plan* plan, uint64_t t_begin, PhaseStats* st) {
    prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 us wake-up slack, not 50 us
    const std::vector<Stmt>& stmts = plan->stmts;
    std::vector<std::string> burst;
    size_t i = 0;
    while (i < stmts.size()) {
      const uint64_t now = obs::NowNs();
      const uint64_t due = t_begin + stmts[i].due_ns;
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        continue;
      }
      size_t j = i;
      burst.clear();
      while (j < stmts.size() && t_begin + stmts[j].due_ns <= now &&
             j - i < 64) {
        burst.push_back(stmts[j].sql);
        ++j;
      }
      const uint64_t t0 = obs::NowNs();
      StatusOr<std::vector<uint32_t>> ids =
          fixture_.client(c).SendQueries(burst);
      const uint64_t t1 = obs::NowNs();
      if (!ids.ok()) break;
      if (i == 0) plan->base_id.store((*ids)[0], std::memory_order_release);
      for (size_t k = i; k < j; ++k) {
        st->lag.Add(t0 - (t_begin + stmts[k].due_ns));
        plan->send_start[k].store(t0, std::memory_order_relaxed);
        plan->send_end[k].store(t1, std::memory_order_release);
      }
      i = j;
      plan->progress.store(i, std::memory_order_release);
      plan->progress.notify_one();
    }
    plan->progress.store(i | kDone, std::memory_order_release);
    plan->progress.notify_one();
  }

  void Receive(size_t c, Plan* plan, uint64_t t_begin, PhaseStats* st,
               SpanBuffer* sb) {
    const std::vector<Stmt>& stmts = plan->stmts;
    net::Client& client = fixture_.client(c);
    st->attempted = stmts.size();
    std::vector<Span> children;
    size_t received = 0;
    while (received < stmts.size()) {
      const uint64_t progress = plan->progress.load(std::memory_order_acquire);
      if ((progress & ~kDone) == received) {
        if (progress & kDone) break;  // the sender gave up early
        plan->progress.wait(progress, std::memory_order_acquire);
        continue;
      }
      StatusOr<net::Response> r = client.ReadResponse();
      const uint64_t t1 = obs::NowNs();
      if (!r.ok()) break;
      ++received;
      uint32_t base = 0;
      while ((base = plan->base_id.load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();
      }
      const size_t i = r->request_id - base;
      if (i >= stmts.size()) {
        st->Fail("response to an unknown request");
        continue;
      }
      uint64_t sent_at = 0;
      while ((sent_at = plan->send_end[i].load(std::memory_order_acquire)) ==
             0) {
        std::this_thread::yield();
      }
      const Stmt& s = stmts[i];
      bool ok = r->ok();
      const char* cls = "point";
      switch (s.kind) {
        case kPoint:
          ok = ok && PointRowOk(r->result, s.key, kValLen);
          break;
        case kRange:
          cls = "range";
          ok = ok && RangeRowsOk(r->result, s.key, s.key + kRangeRows - 1,
                                 kValLen);
          break;
        case kUpdate:
          cls = "update";
          ok = ok && r->result.affected == 1;
          if (ok) st->user_bytes_written += kValLen;
          break;
      }
      if (!ok) {
        st->Fail(r->ok() ? std::string("wrong ") + cls + " result"
                         : r->error.message);
        continue;
      }
      st->rows_returned += r->result.rows.size();
      const uint64_t due = t_begin + s.due_ns;
      st->AddOp(t1, t1 - due);
      st->by_class[cls].Add(t1 - due);
      if (sb != nullptr) {
        const uint64_t s0 = plan->send_start[i].load(std::memory_order_relaxed);
        children.assign({{kSend, s0, sent_at}, {kWait, sent_at, t1}});
        sb->RecordOp(due, t1, children);
      }
    }
    for (size_t k = received; k < stmts.size(); ++k) {
      st->Fail("statement never answered");
    }
  }

  const uint64_t seed_;
  const size_t rows_;
  const double rate_;
  const double warm_s_;
  uint64_t phase_ = 0;
  uint64_t last_version_ = 0;
  WireFixture fixture_;
};

// ------------------------------------------------------ embedded helpers

/// Parses and executes one statement through the public SQL path and
/// appends its parse and execute spans (always both) to `children`.
StatusOr<QueryResult> ExecuteSql(const QueryEngine& engine,
                                 const std::string& sql,
                                 std::vector<Span>* children) {
  const uint64_t t0 = obs::NowNs();
  StatusOr<ParsedStatement> parsed = ParseSql(sql);
  const uint64_t t1 = obs::NowNs();
  children->push_back({kParse, t0, t1});
  StatusOr<QueryResult> result =
      InternalError("EXPLAIN is not part of any workload");
  if (!parsed.ok()) {
    result = parsed.status();
  } else {
    switch (parsed->kind) {
      case ParsedStatement::Kind::kSelect:
        result = engine.Execute(parsed->select);
        break;
      case ParsedStatement::Kind::kInsert:
        result = engine.Execute(parsed->insert);
        break;
      case ParsedStatement::Kind::kUpdate:
        result = engine.Execute(parsed->update);
        break;
      case ParsedStatement::Kind::kDelete:
        result = engine.Execute(parsed->del);
        break;
      case ParsedStatement::Kind::kExplain:
        break;
    }
  }
  children->push_back({kExecute, t1, obs::NowNs()});
  return result;
}

/// Records statement k's parse time and latency (parse + execute) from the
/// spans ExecuteSql appended.
void RecordStatement(const std::vector<Span>& children, size_t k,
                     const char* cls, PhaseStats* st) {
  const Span& parse = children[2 * k];
  const Span& exec = children[2 * k + 1];
  st->parse.Add(parse.end_ns - parse.start_ns);
  st->by_class[cls].Add(exec.end_ns - parse.start_ns);
}

// ------------------------------------------------------------ scan_report

/// One op is a fixed report of 16 statements from one client thread:
/// 8 point lookups, 6 index ranges over 2 % of the table, and 2 ranges over
/// 95 % with a residual on the unindexed `grp` column. The table is larger
/// than the decrypted cache, so the wide ranges keep decrypting; no network
/// is involved.
class ScanReport : public Workload {
 public:
  static constexpr size_t kPayloadLen = 480;
  static constexpr uint64_t kGroups = 16;

  ScanReport(uint64_t seed, Sizes sizes)
      : seed_(seed),
        rows_(sizes.Pick(100000, 3000)),
        warm_s_(sizes.WarmupSeconds(1.0)) {}

  StatusOr<double> Setup() override {
    DeterministicRng rng(seed_ ^ 0x5ca9);
    grp_.resize(rows_);
    std::vector<std::vector<Value>> load;
    load.reserve(rows_);
    for (size_t i = 0; i < rows_; ++i) {
      const int64_t id = static_cast<int64_t>(i);
      grp_[i] = static_cast<int64_t>(rng.UniformUint64(kGroups));
      load.push_back({Value::Int(id), Value::Int(grp_[i]),
                      Value::Str(ValueText(id, seed_, kPayloadLen))});
    }
    const uint64_t t0 = obs::NowNs();
    SDBENC_ASSIGN_OR_RETURN(db_,
                            SecureDatabase::Open(MasterKey(seed_, 0), seed_));
    SecureTableOptions table;
    table.indexed_columns = {"id"};
    table.index_order = 16;
    SDBENC_RETURN_IF_ERROR(db_->CreateTable(
        "t", Schema({{"id", ValueType::kInt64, true},
                     {"grp", ValueType::kInt64, true},
                     {"payload", ValueType::kString, true}}),
        table));
    SDBENC_RETURN_IF_ERROR(db_->BulkInsert("t", load));
    engine_ = std::make_unique<QueryEngine>(db_.get());
    return static_cast<double>(obs::NowNs() - t0) / 1e9;
  }

  void Teardown() override {
    engine_.reset();
    db_.reset();
  }

  Status Warmup() override {
    const PhaseStats warm = Run(warm_s_, nullptr);
    return warm.failed == 0 ? OkStatus()
                            : InternalError("warm-up reports failed");
  }

  PhaseStats Run(double seconds, std::vector<SpanBuffer>* spans) override {
    ++phase_;
    if (spans != nullptr) spans->assign(1, SpanBuffer());
    PhaseStats st;
    DeterministicRng rng(seed_ * 613 + phase_ * 7);
    const int64_t n = static_cast<int64_t>(rows_);
    const int64_t narrow = std::max<int64_t>(1, n * 2 / 100);
    const int64_t wide = n * 95 / 100;
    std::vector<std::string> sqls;
    std::vector<Expect> expects;
    std::vector<StatusOr<QueryResult>> results;
    std::vector<Span> children;
    const uint64_t t_begin = obs::NowNs();
    const uint64_t deadline = t_begin + static_cast<uint64_t>(seconds * 1e9);
    st.Begin(t_begin, seconds, slices());
    while (obs::NowNs() < deadline) {
      sqls.clear();
      expects.clear();
      for (int k = 0; k < 8; ++k) {
        const int64_t id = static_cast<int64_t>(rng.UniformUint64(rows_));
        sqls.push_back(PointSql("t", "id, grp, payload", id));
        expects.push_back({Expect::kPoint, id, id, -1, 1});
      }
      for (int k = 0; k < 6; ++k) {
        const int64_t lo =
            static_cast<int64_t>(rng.UniformUint64(n - narrow + 1));
        sqls.push_back(RangeSql("t", "id, grp", lo, lo + narrow - 1));
        expects.push_back({Expect::kRange, lo, lo + narrow - 1, -1,
                           static_cast<size_t>(narrow)});
      }
      for (int k = 0; k < 2; ++k) {
        const int64_t lo =
            static_cast<int64_t>(rng.UniformUint64(n - wide + 1));
        const int64_t g = static_cast<int64_t>(rng.UniformUint64(kGroups));
        sqls.push_back(RangeSql("t", "id, grp", lo, lo + wide - 1) +
                       " AND grp = " + std::to_string(g));
        expects.push_back(
            {Expect::kScan, lo, lo + wide - 1, g,
             static_cast<size_t>(std::count(grp_.begin() + lo,
                                            grp_.begin() + lo + wide, g))});
      }
      results.clear();
      children.clear();
      const uint64_t op0 = obs::NowNs();
      for (const std::string& sql : sqls) {
        results.push_back(ExecuteSql(*engine_, sql, &children));
      }
      const uint64_t op1 = obs::NowNs();
      ++st.attempted;
      if (spans != nullptr) (*spans)[0].RecordOp(op0, op1, children);
      bool ok = true;
      for (size_t k = 0; k < sqls.size(); ++k) {
        const char* cls = kClassNames[expects[k].kind];
        RecordStatement(children, k, cls, &st);
        if (!ok) continue;
        if (!results[k].ok()) {
          st.Fail(results[k].status().ToString());
          ok = false;
        } else if (!Check(expects[k], *results[k])) {
          st.Fail(std::string("wrong ") + cls + " result");
          ok = false;
        } else {
          st.rows_returned += results[k]->rows.size();
        }
      }
      if (ok) st.AddOp(op1, op1 - op0);
    }
    st.wall_s = static_cast<double>(obs::NowNs() - t_begin) / 1e9;
    return st;
  }

  Status Finish(Footprint*) override {
    Teardown();
    return OkStatus();
  }

  size_t setup_repeats() const override { return 3; }
  size_t slices() const override { return 1; }
  double tail_pct() const override { return 75; }

 private:
  struct Expect {
    enum Kind { kPoint, kRange, kScan } kind;
    int64_t lo;
    int64_t hi;
    int64_t grp;  // kScan only
    size_t rows;
  };
  static constexpr const char* kClassNames[] = {"point", "range", "scan"};

  bool Check(const Expect& e, const QueryResult& r) const {
    if (r.rows.size() != e.rows) return false;
    std::vector<int64_t> ids;
    for (const auto& row : r.rows) {
      if (row.size() < 2 || row[0].type() != ValueType::kInt64) return false;
      const int64_t id = row[0].AsInt();
      if (id < e.lo || id > e.hi || !IsInt(row[1], grp_[id])) return false;
      if (e.kind == Expect::kScan && grp_[id] != e.grp) return false;
      if (e.kind == Expect::kPoint &&
          (row.size() != 3 || !ValueMatches(row[2], id, kPayloadLen))) {
        return false;
      }
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
  }

  const uint64_t seed_;
  const size_t rows_;
  const double warm_s_;
  uint64_t phase_ = 0;
  std::vector<int64_t> grp_;
  std::unique_ptr<SecureDatabase> db_;
  std::unique_ptr<QueryEngine> engine_;
};

// ---------------------------------------------------------- durable_ingest

/// One writer on a file-backed session with the WAL on (group-commit
/// window 0). Each op is a transaction of 16 statements, a quarter INSERTs
/// of new rows and the rest UPDATEs of existing ones, made durable by
/// CommitDurable(). Every kCheckpointEvery commits, and at the end, a
/// Flush() checkpoints the page file and truncates the log: the log grows
/// by about 0.4 MiB per commit, and nothing else bounds it. The
/// checkpoint counts in the latency of the op that triggers it. At the end
/// the page file is reopened, verified and spot-checked.
class DurableIngest : public Workload {
 public:
  static constexpr size_t kValLen = 100;
  static constexpr size_t kStatementsPerTxn = 16;
  static constexpr size_t kSpotChecks = 1000;
  static constexpr size_t kCheckpointEvery = 256;

  DurableIngest(uint64_t seed, Sizes sizes, std::string workdir)
      : seed_(seed),
        base_rows_(sizes.Pick(20000, 1000)),
        warm_s_(sizes.WarmupSeconds(0.5)),
        workdir_(std::move(workdir)) {}

  ~DurableIngest() override { Teardown(); }

  StatusOr<double> Setup() override {
    dir_ = workdir_ + "/durable-" + std::to_string(::getpid()) + "-" +
           std::to_string(++setups_);
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    if (!std::filesystem::create_directories(dir_, ec)) {
      return InternalError("cannot create " + dir_);
    }
    path_ = dir_ + "/ingest.sdb";
    versions_.assign(base_rows_, 0);
    uncheckpointed_ = 0;
    std::vector<std::vector<Value>> load;
    load.reserve(base_rows_);
    for (size_t i = 0; i < base_rows_; ++i) {
      const int64_t id = static_cast<int64_t>(i);
      load.push_back({Value::Int(id), Value::Int(GroupOf(id)),
                      Value::Str(ValueText(id, 0, kValLen))});
    }
    const uint64_t t0 = obs::NowNs();
    SDBENC_ASSIGN_OR_RETURN(
        db_, SecureDatabase::Open(MasterKey(seed_, 0),
                                  StorageOptions::File(path_), seed_));
    SecureTableOptions table;
    table.indexed_columns = {"id"};
    table.index_order = 16;
    SDBENC_RETURN_IF_ERROR(db_->CreateTable(
        "t", Schema({{"id", ValueType::kInt64, true},
                     {"grp", ValueType::kInt64, true},
                     {"val", ValueType::kString, true}}),
        table));
    SDBENC_RETURN_IF_ERROR(db_->BulkInsert("t", load));
    SDBENC_RETURN_IF_ERROR(db_->Flush());
    engine_ = std::make_unique<QueryEngine>(db_.get());
    return static_cast<double>(obs::NowNs() - t0) / 1e9;
  }

  void Teardown() override {
    engine_.reset();
    db_.reset();
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
      dir_.clear();
    }
  }

  Status Warmup() override {
    const PhaseStats warm = Run(warm_s_, nullptr);
    return warm.failed == 0 ? OkStatus()
                            : InternalError("warm-up transactions failed");
  }

  PhaseStats Run(double seconds, std::vector<SpanBuffer>* spans) override {
    ++phase_;
    if (spans != nullptr) spans->assign(1, SpanBuffer());
    PhaseStats st;
    DeterministicRng rng(seed_ * 877 + phase_ * 13);
    std::vector<std::string> sqls;
    std::vector<std::pair<int64_t, uint64_t>> writes;  // (id, version)
    std::vector<StatusOr<QueryResult>> results;
    std::vector<Span> children;
    const uint64_t t_begin = obs::NowNs();
    const uint64_t deadline = t_begin + static_cast<uint64_t>(seconds * 1e9);
    st.Begin(t_begin, seconds, slices());
    while (obs::NowNs() < deadline) {
      sqls.clear();
      writes.clear();
      int64_t next_id = static_cast<int64_t>(versions_.size());
      for (size_t k = 0; k < kStatementsPerTxn; ++k) {
        const uint64_t version = ++last_version_;
        const int64_t id =
            IsInsert(k) ? next_id++
                        : static_cast<int64_t>(
                              rng.UniformUint64(versions_.size()));
        const std::string val = ValueText(id, version, kValLen);
        sqls.push_back(IsInsert(k) ? "INSERT INTO t VALUES (" +
                                         std::to_string(id) + ", " +
                                         std::to_string(GroupOf(id)) + ", '" +
                                         val + "')"
                                   : UpdateSql("t", id, val));
        writes.push_back({id, version});
      }
      results.clear();
      children.clear();
      const uint64_t op0 = obs::NowNs();
      for (const std::string& sql : sqls) {
        results.push_back(ExecuteSql(*engine_, sql, &children));
      }
      const uint64_t c0 = obs::NowNs();
      Status commit = db_->CommitDurable();
      const uint64_t c1 = obs::NowNs();
      children.push_back({kCommit, c0, c1});
      if (commit.ok() && ++uncheckpointed_ == kCheckpointEvery) {
        uncheckpointed_ = 0;
        commit = db_->Flush();
        children.push_back({kCommit, c1, obs::NowNs()});
      }
      const uint64_t op1 = children.back().end_ns;
      ++st.attempted;
      ++st.commits;
      if (spans != nullptr) (*spans)[0].RecordOp(op0, op1, children);
      st.by_class["commit"].Add(c1 - c0);
      bool ok = commit.ok();
      if (!ok) st.Fail(commit.ToString());
      for (size_t k = 0; k < sqls.size(); ++k) {
        RecordStatement(children, k, IsInsert(k) ? "insert" : "update", &st);
        if (!results[k].ok() || results[k]->affected != 1) {
          if (ok) {
            st.Fail(results[k].ok() ? "statement touched a wrong row count"
                                    : results[k].status().ToString());
          }
          ok = false;
          continue;
        }
        const auto [id, version] = writes[k];
        if (IsInsert(k)) {
          versions_.push_back(version);
          st.user_bytes_written += 16 + kValLen;
        } else {
          versions_[id] = version;
          st.user_bytes_written += kValLen;
        }
      }
      if (ok) st.AddOp(op1, op1 - op0);
    }
    st.wall_s = static_cast<double>(obs::NowNs() - t_begin) / 1e9;
    return st;
  }

  /// Checkpoints, measures the page file, then proves durability from the
  /// file alone: reopen, VerifyIntegrity(), and compare sampled rows with
  /// what the driver committed.
  Status Finish(Footprint* fp) override {
    SDBENC_RETURN_IF_ERROR(db_->Flush());
    fp->file_bytes = static_cast<double>(std::filesystem::file_size(path_));
    fp->user_bytes = static_cast<double>(versions_.size()) * (16.0 + kValLen);
    engine_.reset();
    db_.reset();
    SDBENC_ASSIGN_OR_RETURN(
        db_, SecureDatabase::OpenFromFile(MasterKey(seed_, 0), path_, seed_));
    SDBENC_RETURN_IF_ERROR(db_->VerifyIntegrity());
    DeterministicRng rng(seed_ + 4242);
    for (size_t k = 0; k < kSpotChecks; ++k) {
      const int64_t id =
          static_cast<int64_t>(rng.UniformUint64(versions_.size()));
      SDBENC_ASSIGN_OR_RETURN(std::vector<std::vector<Value>> rows,
                              db_->SelectEquals("t", "id", Value::Int(id)));
      const std::vector<Value> want = {
          Value::Int(id), Value::Int(GroupOf(id)),
          Value::Str(ValueText(id, versions_[id], kValLen))};
      if (rows.size() != 1 || rows[0] != want) {
        return InternalError("row " + std::to_string(id) +
                             " differs from what was committed");
      }
    }
    Teardown();
    return OkStatus();
  }

  size_t setup_repeats() const override { return 3; }
  size_t slices() const override { return 10; }
  double tail_pct() const override { return 95; }

 private:
  static bool IsInsert(size_t k) { return k % 4 == 3; }

  int64_t GroupOf(int64_t id) const {
    return static_cast<int64_t>((static_cast<uint64_t>(id) * 7 + seed_) % 16);
  }

  const uint64_t seed_;
  const size_t base_rows_;
  const double warm_s_;
  const std::string workdir_;
  uint64_t phase_ = 0;
  uint64_t setups_ = 0;
  uint64_t last_version_ = 0;
  size_t uncheckpointed_ = 0;  // commits since the last Flush()
  std::string dir_;
  std::string path_;
  std::vector<uint64_t> versions_;  // per id: version of its current value
  std::unique_ptr<SecureDatabase> db_;
  std::unique_ptr<QueryEngine> engine_;
};

// ----------------------------------------------------------- orchestrator

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string workdir = ".";
  std::string trace_path;  // empty = untraced
  bool smoke = false;
};

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  const Sizes sizes{o.smoke};
  if (o.workload == "wire_point_hot") {
    return std::make_unique<WirePointHot>(o.seed, sizes);
  }
  if (o.workload == "wire_mixed_cold") {
    return std::make_unique<WireMixedCold>(o.seed, sizes);
  }
  if (o.workload == "scan_report") {
    return std::make_unique<ScanReport>(o.seed, sizes);
  }
  if (o.workload == "durable_ingest") {
    return std::make_unique<DurableIngest>(o.seed, sizes, o.workdir);
  }
  return nullptr;
}

/// Times EAX Seal and Open outside the workload at a given message size:
/// the per-call costs that, times the calls counted per op, give the
/// paper's §4 estimate of the crypto share of an op.
constexpr size_t kAeadTimedCalls = 20000;
void TimeAeadCalls(size_t msg_bytes, double* seal_ns, double* open_ns) {
  *seal_ns = *open_ns = 0;
  StatusOr<std::unique_ptr<Aead>> aead =
      CreateAead(AeadAlgorithm::kEax, Bytes(16, 0x42));
  if (!aead.ok()) return;
  const Bytes nonce((*aead)->nonce_size(), 0x24);
  const Bytes msg(msg_bytes, 0x5a);
  const Bytes ad(24, 0x11);
  StatusOr<Aead::Sealed> sealed = (*aead)->Seal(nonce, msg, ad);
  if (!sealed.ok()) return;
  uint64_t t0 = obs::NowNs();
  for (size_t i = 0; i < kAeadTimedCalls; ++i) {
    sealed = (*aead)->Seal(nonce, msg, ad);
  }
  *seal_ns = static_cast<double>(obs::NowNs() - t0) / kAeadTimedCalls;
  size_t opened = 0;
  t0 = obs::NowNs();
  for (size_t i = 0; i < kAeadTimedCalls; ++i) {
    opened += (*aead)->Open(nonce, sealed->ciphertext, sealed->tag, ad).ok();
  }
  *open_ns = static_cast<double>(obs::NowNs() - t0) / kAeadTimedCalls;
  if (opened != kAeadTimedCalls) *open_ns = 0;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Prints every metric of the untraced window `a`.
void EmitMeasured(const Workload& w, const std::vector<double>& setup_s,
                  const PhaseStats& a, const RegistryWindow& reg,
                  double peak_rss_mb, const Footprint& fp) {
  const double ops = static_cast<double>(a.op.count());
  const double tail_pct = w.tail_pct();
  const double p50 = a.SlicedPercentileUs(50);
  const double slices = static_cast<double>(a.op_slices.size());

  // End to end.
  EmitMetric("ops_per_s", Ratio(ops, a.wall_s), "1/s", "e2e", ops,
             {{"ops", ops}, {"wall_s", a.wall_s}});
  EmitMetric("op_p50_us", p50, "us", "e2e", ops,
             {{"slices", slices}, {"whole_window", a.op.PercentileUs(50)}});
  EmitMetric("op_tail_us", a.SlicedPercentileUs(tail_pct), "us", "e2e", ops,
             {{"pct", tail_pct},
              {"slices", slices},
              {"beyond_per_slice", ops * (1 - tail_pct / 100) / slices},
              {"whole_window", a.op.PercentileUs(tail_pct)}});
  EmitMetric("setup_s", Median(setup_s), "s", "e2e",
             static_cast<double>(setup_s.size()),
             {{"min", *std::min_element(setup_s.begin(), setup_s.end())},
              {"max", *std::max_element(setup_s.begin(), setup_s.end())}});
  EmitMetric("fail_ratio",
             Ratio(static_cast<double>(a.failed),
                   static_cast<double>(a.attempted)),
             "ratio", "e2e", static_cast<double>(a.attempted),
             {{"ops_attempted", static_cast<double>(a.attempted)},
              {"ops_failed", static_cast<double>(a.failed)}});
  EmitMetric("peak_rss_mb", peak_rss_mb, "MiB", "e2e", 1);

  // Per layer. Every ratio carries its base counts.
  auto per_op = [&](const char* name, double count, const char* unit) {
    EmitMetric(name, Ratio(count, ops), unit, "layer", ops,
               {{"count", count}, {"ops", ops}});
  };
  auto mean_us = [&](const char* name, const char* hist) {
    const double n = reg.HistCount(hist);
    EmitMetric(name, Ratio(reg.HistSum(hist), n) / 1e3, "us", "layer", n,
               {{"sum_ns", reg.HistSum(hist)}, {"count", n}});
  };
  auto ratio = [&](const char* name, double num, double den,
                   const char* num_key, const char* den_key) {
    EmitMetric(name, Ratio(num, den), "ratio", "layer", den,
               {{num_key, num}, {den_key, den}});
  };
  auto p50_of = [&](const std::string& name, const Histo& h) {
    EmitMetric(name, h.PercentileUs(50), "us", "layer",
               static_cast<double>(h.count()));
  };
  auto per_commit = [&](const char* name, const char* counter) {
    const double commits = static_cast<double>(a.commits);
    EmitMetric(name, Ratio(reg.Counter(counter), commits), "count", "layer",
               commits,
               {{"count", reg.Counter(counter)}, {"commits", commits}});
  };

  // net
  per_op("net.rx_bytes_per_op", reg.Counter("sdbenc_server_rx_bytes_total"),
         "B");
  per_op("net.tx_bytes_per_op", reg.Counter("sdbenc_server_tx_bytes_total"),
         "B");
  mean_us("net.server_exec_us_mean", "sdbenc_server_query_ns");
  const double exec_us = Ratio(reg.HistSum("sdbenc_server_query_ns"),
                               reg.HistCount("sdbenc_server_query_ns")) /
                         1e3;
  EmitMetric("net.outside_exec_us", exec_us > 0 ? p50 - exec_us : 0.0, "us",
             "layer", ops, {{"op_p50_us", p50}, {"server_exec_us", exec_us}});
  // util: thread pool and locks
  per_op("pool.tasks_per_op", reg.Counter("sdbenc_pool_tasks_total"),
         "count");
  mean_us("pool.task_wait_us_mean", "sdbenc_pool_task_wait_ns");
  mean_us("pool.task_run_us_mean", "sdbenc_pool_task_run_ns");
  per_op("lock.wait_us_per_op", reg.HistSum("sdbenc_lock_wait_ns") / 1e3,
         "us");
  // query
  p50_of("query.parse_us_p50", a.parse);
  mean_us("query.plan_us_mean", "sdbenc_query_plan_ns");
  mean_us("query.execute_us_mean", "sdbenc_query_execute_ns");
  ratio("query.cells_per_row_returned",
        reg.Counter("sdbenc_leak_cells_decrypted_total"),
        static_cast<double>(a.rows_returned), "cells_decrypted",
        "rows_returned");
  per_op("query.refetches_per_op",
         reg.Counter("sdbenc_leak_residual_refetches_total"), "count");
  for (const char* cls :
       {"point", "range", "scan", "update", "insert", "commit"}) {
    const auto it = a.by_class.find(cls);
    p50_of("class." + std::string(cls) + "_us_p50",
           it == a.by_class.end() ? Histo() : it->second);
  }
  // btree
  per_op("btree.nodes_touched_per_op",
         reg.Counter("sdbenc_leak_index_nodes_touched_total"), "count");
  per_op("btree.entry_decodes_per_op",
         reg.Counter("sdbenc_btree_entry_decodes_total"), "count");
  per_op("btree.entry_encodes_per_op",
         reg.Counter("sdbenc_btree_entry_encodes_total"), "count");
  per_op("btree.splits_per_op", reg.Counter("sdbenc_btree_node_splits_total"),
         "count");
  per_op("btree.node_faults_per_op",
         reg.Counter("sdbenc_btree_node_faults_total"), "count");
  // schemes / aead / crypto
  const double opens = reg.Counter("sdbenc_aead_open_total");
  const double seals = reg.Counter("sdbenc_aead_seal_total");
  const double aead_bytes = reg.Counter("sdbenc_aead_open_bytes_total") +
                            reg.Counter("sdbenc_aead_seal_bytes_total");
  per_op("crypto.aead_opens_per_op", opens, "count");
  per_op("crypto.aead_seals_per_op", seals, "count");
  per_op("crypto.aead_bytes_per_op", aead_bytes, "B");
  per_op("crypto.aes_blocks_per_op",
         reg.Counter("sdbenc_cipher_encrypt_blocks_total") +
             reg.Counter("sdbenc_cipher_decrypt_blocks_total"),
         "count");
  const double msg_bytes =
      opens + seals > 0 ? aead_bytes / (opens + seals) : 64.0;
  double seal_ns = 0;
  double open_ns = 0;
  TimeAeadCalls(static_cast<size_t>(msg_bytes), &seal_ns, &open_ns);
  EmitMetric("crypto.open_ns_per_call", open_ns, "ns", "layer",
             kAeadTimedCalls, {{"msg_bytes", msg_bytes}});
  EmitMetric("crypto.seal_ns_per_call", seal_ns, "ns", "layer",
             kAeadTimedCalls, {{"msg_bytes", msg_bytes}});
  // The §4 cost model checked in place: calls x measured cost per call, as
  // a share of the op's median latency (above 1 where ParallelFor spreads
  // the crypto over several threads).
  const double crypto_ns_per_op =
      Ratio(opens * open_ns + seals * seal_ns, ops);
  EmitMetric("crypto.est_share", Ratio(crypto_ns_per_op, p50 * 1e3), "ratio",
             "layer", ops,
             {{"crypto_ns_per_op", crypto_ns_per_op},
              {"op_p50_ns", p50 * 1e3}});
  // storage: decrypted cache, buffer pool, pages, WAL
  const double hits = reg.Counter("sdbenc_dcache_hits_total");
  ratio("dcache.hit_ratio", hits,
        hits + reg.Counter("sdbenc_dcache_misses_total"), "hits", "lookups");
  per_op("dcache.evictions_per_op",
         reg.Counter("sdbenc_dcache_evictions_total"), "count");
  const double pool_hits = reg.Counter("sdbenc_storage_pool_hits_total");
  ratio("bufpool.hit_ratio", pool_hits,
        pool_hits + reg.Counter("sdbenc_storage_pool_misses_total"), "hits",
        "accesses");
  per_op("storage.page_reads_per_op",
         reg.Counter("sdbenc_storage_page_reads_total"), "count");
  per_op("storage.page_writes_per_op",
         reg.Counter("sdbenc_storage_page_writes_total"), "count");
  mean_us("storage.fault_us_mean", "sdbenc_storage_fault_ns");
  const double user_written = static_cast<double>(a.user_bytes_written);
  ratio("storage.write_bytes_per_user_byte",
        reg.Counter("sdbenc_storage_write_bytes_total"), user_written,
        "write_bytes", "user_bytes_written");
  ratio("storage.bytes_stored_per_user_byte", fp.file_bytes, fp.user_bytes,
        "page_file_bytes", "user_bytes");
  ratio("wal.bytes_per_user_byte", reg.Counter("sdbenc_wal_bytes_total"),
        user_written, "wal_bytes", "user_bytes_written");
  per_commit("wal.fsyncs_per_commit", "sdbenc_wal_fsyncs_total");
  mean_us("wal.fsync_us_mean", "sdbenc_wal_fsync_ns");
  per_commit("wal.records_per_commit", "sdbenc_wal_records_total");
  // run validity
  EmitMetric("gen.lag_us_p99", a.lag.PercentileUs(99), "us", "layer",
             static_cast<double>(a.lag.count()));
}

/// Prints the traced window's metrics: span self-time medians, how much of
/// each op its child spans cover, and the tracing overhead.
void EmitTraced(const PhaseStats& a, const PhaseStats& b,
                const std::vector<SpanBuffer>& spans) {
  const double untraced =
      Ratio(static_cast<double>(a.op.count()), a.wall_s);
  const double traced = Ratio(static_cast<double>(b.op.count()), b.wall_s);
  EmitMetric("trace.overhead", Ratio(traced, untraced), "ratio", "layer",
             static_cast<double>(b.op.count()),
             {{"traced_ops_per_s", traced}, {"untraced_ops_per_s", untraced}});
  double op_ns = 0;
  double child_ns = 0;
  for (const SpanBuffer& sb : spans) {
    op_ns += sb.op_ns();
    child_ns += sb.child_ns();
  }
  for (size_t k = 0; k < kNumSpanKinds; ++k) {
    Histo self;
    for (const SpanBuffer& sb : spans) {
      self.Merge(sb.self(static_cast<SpanKind>(k)));
    }
    EmitMetric("span." + std::string(kSpanNames[k]) + "_self_us",
               self.PercentileUs(50), "us", "layer",
               static_cast<double>(self.count()));
  }
  EmitMetric("span.child_share", Ratio(child_ns, op_ns), "ratio", "layer",
             static_cast<double>(b.op.count()),
             {{"child_ns", child_ns}, {"op_ns", op_ns}});
}

int Main(const Options& o) {
  std::unique_ptr<Workload> w = MakeWorkload(o);
  if (w == nullptr) {
    std::fprintf(stderr, "sdbenc_bench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  std::vector<double> setup_s;
  const size_t repeats = o.smoke ? 2 : w->setup_repeats();
  for (size_t r = 0; r < repeats; ++r) {
    if (r > 0) {
      w->Teardown();
      // Hand the freed set-up back to the OS, so that repeating the set-up
      // does not stack up in peak_rss_mb.
      malloc_trim(0);
    }
    StatusOr<double> s = w->Setup();
    if (!s.ok()) {
      std::fprintf(stderr, "sdbenc_bench: setup failed: %s\n",
                   s.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(*s);
  }
  const Status warm = w->Warmup();
  if (!warm.ok()) {
    std::fprintf(stderr, "sdbenc_bench: warm-up failed: %s\n",
                 warm.ToString().c_str());
    return 1;
  }
  const int64_t backend =
      obs::Registry().GetGauge("sdbenc_crypto_backend")->Value();

  const bool traced = !o.trace_path.empty();
  const double untraced_s = traced ? o.seconds / 2 : o.seconds;
  RegistryWindow reg;
  reg.Begin();
  const PhaseStats a = w->Run(untraced_s, nullptr);
  reg.End();
  PhaseStats b;
  std::vector<SpanBuffer> spans;
  uint64_t trace_origin = 0;
  if (traced) {
    trace_origin = obs::NowNs();
    b = w->Run(o.seconds - untraced_s, &spans);
  }
  // Read before Finish(): its post-run checks are not the workload's.
  const double peak_rss_mb = PeakRssMb();
  Footprint fp;
  const Status finish = w->Finish(&fp);

  EmitMeasured(*w, setup_s, a, reg, peak_rss_mb, fp);
  bool trace_written = true;
  if (traced) {
    EmitTraced(a, b, spans);
    trace_written = WriteChromeTrace(o.trace_path, spans, trace_origin);
  }
  std::vector<std::string> errors = a.errors;
  errors.insert(errors.end(), b.errors.begin(), b.errors.end());
  if (!finish.ok()) errors.push_back("final check: " + finish.ToString());
  if (!trace_written) errors.push_back("cannot write " + o.trace_path);
  const uint64_t failed = a.failed + b.failed;
  const bool correct =
      failed == 0 && finish.ok() && trace_written && a.op.count() > 0;
  std::string err_json = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    err_json += (i ? "," : "") + JsonString(errors[i]);
  }
  err_json += "]";
  std::printf(
      "{\"summary\":{\"workload\":%s,\"seed\":%llu,\"attempted\":%llu,"
      "\"failed\":%llu,\"correct\":%s,\"crypto_backend\":\"%s\","
      "\"errors\":%s}}\n",
      JsonString(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      static_cast<unsigned long long>(a.attempted + b.attempted),
      static_cast<unsigned long long>(failed), correct ? "true" : "false",
      backend == 1 ? "aesni" : "portable", err_json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace sdbenc

int main(int argc, char** argv) {
  sdbenc::e2e::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      o.workload = v;
    } else if (const char* v = value("--seed=")) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      o.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--workdir=")) {
      o.workdir = v;
    } else if (const char* v = value("--trace=")) {
      o.trace_path = v;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      std::fprintf(stderr, "sdbenc_bench: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (o.workload.empty() || !(o.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: sdbenc_bench --workload=NAME --seed=S --seconds=T "
                 "--workdir=DIR [--trace=FILE] [--smoke]\n");
    return 2;
  }
  return sdbenc::e2e::Main(o);
}
