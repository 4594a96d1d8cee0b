// ResultSink — pluggable row consumers for experiment output.
//
// A Row is an ordered list of (key, value) cells (bool / signed /
// unsigned / double / string).  row_json renders one as the compact JSON
// object its artifact holds: the one serialized form a Row has.  Two
// sinks ship here:
//
//   JsonSink   writes BENCH_<name>.json in the shared schema
//              ({"bench", "threads", "results": [row…]}) — the ONE writer
//              behind every perf-trajectory artifact (the seed repo had
//              seven hand-rolled copies);
//   TableSink  renders rows as an aligned console table for the CLI.
//
// (ShardSink, in shard.hpp, carries the same row texts in a partial
// result file, and a merge appends them verbatim through JsonSink.)
//
// Sinks receive rows either directly (sink.write(row)) or fanned out
// through a Session (session.emit(row) → every attached sink).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "stats/table.hpp"

namespace osp::api {

/// One experiment-result row: ordered, heterogeneously typed cells.
struct Row {
  using Value =
      std::variant<bool, std::int64_t, std::uint64_t, double, std::string>;
  std::vector<std::pair<std::string, Value>> cells;

  Row& add(const std::string& key, bool v) {
    cells.emplace_back(key, Value(v));
    return *this;
  }
  Row& add(const std::string& key, double v) {
    cells.emplace_back(key, Value(v));
    return *this;
  }
  Row& add(const std::string& key, const std::string& v) {
    cells.emplace_back(key, Value(v));
    return *this;
  }
  Row& add(const std::string& key, const char* v) {
    return add(key, std::string(v));
  }
  /// Any integer type, preserving signedness (bool excluded: own overload).
  template <class T,
            typename std::enable_if<std::is_integral<T>::value &&
                                        !std::is_same<T, bool>::value,
                                    int>::type = 0>
  Row& add(const std::string& key, T v) {
    if (std::is_signed<T>::value)
      cells.emplace_back(key, Value(static_cast<std::int64_t>(v)));
    else
      cells.emplace_back(key, Value(static_cast<std::uint64_t>(v)));
    return *this;
  }

  /// The value stored under `key`; throws RequireError when the row has
  /// no such cell.
  const Value& at(const std::string& key) const;
};

/// `row` as the compact JSON object its artifact holds: keys in cell
/// order, integers in decimal, doubles as "%.17g" (null when not finite:
/// JSON has no NaN or infinity), strings with '"', '\\', '\n', '\t' and
/// '\r' escaped and every other control character as \u00XX.  The
/// output is one line.
std::string row_json(const Row& row);

/// Abstract row consumer.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void write(const Row& row) = 0;
  /// Finishes the sink's output; further writes are invalid.  Idempotent.
  virtual void close() {}
};

/// Streams rows into BENCH_<name>.json (working directory) in the schema
/// scripts/check_bench_json.py validates.  `threads` records the batch
/// runner's worker count; pass Session::threads().  A sink closed with
/// zero rows still finishes a complete, valid document
/// ({"…","results":[]}) — an empty grid slice must never leave a
/// malformed body behind.
class JsonSink final : public ResultSink {
 public:
  JsonSink(const std::string& name, std::size_t threads);
  /// Test/custom-stream form: same document, caller-owned stream.
  JsonSink(std::ostream& os, const std::string& name, std::size_t threads);
  ~JsonSink() override;

  void write(const Row& row) override;
  /// Appends a row that row_json already rendered (a merged shard's row).
  void write_json(const std::string& row_text);
  void close() override;

 private:
  void begin(const std::string& name, std::size_t threads);

  std::ofstream file_;   // unused by the custom-stream form
  std::ostream* os_;
  bool empty_ = true;
  bool closed_ = false;
};

/// Accumulates rows and renders them as an aligned console table; columns
/// come from the first row's keys (later rows must match).
class TableSink final : public ResultSink {
 public:
  /// `precision` formats double cells (fmt(v, precision)).
  explicit TableSink(int precision = 3) : precision_(precision) {}

  void write(const Row& row) override;
  bool empty() const { return table_ == nullptr; }
  void print(std::ostream& os) const;

 private:
  int precision_;
  std::vector<std::string> columns_;
  std::unique_ptr<Table> table_;
};

}  // namespace osp::api
