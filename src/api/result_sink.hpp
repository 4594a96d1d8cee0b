// ResultSink — pluggable row consumers for experiment output.
//
// A Row is an ordered list of (key, value) cells, typed exactly like the
// JsonWriter scalar overloads (bool / signed / unsigned / double /
// string), so replaying a row through a sink reproduces what a bench
// hand-driving the writer used to emit, byte for byte.  Two sinks ship:
//
//   JsonSink   writes BENCH_<name>.json in the shared schema
//              ({"bench", "threads", "results": [row…]}) — the ONE writer
//              behind every perf-trajectory artifact (the seed repo had
//              seven hand-rolled copies);
//   TableSink  renders rows as an aligned console table for the CLI.
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

#include "stats/json.hpp"
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
  void close() override;

 private:
  std::ofstream file_;   // unused by the custom-stream form
  JsonWriter writer_;
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
