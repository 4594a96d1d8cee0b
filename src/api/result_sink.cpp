#include "api/result_sink.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace osp::api {

namespace {

/// Replays one cell value onto the writer through the exact overload the
/// benches used to call by hand, so the serialized bytes are identical.
void replay(JsonWriter& writer, const Row::Value& value) {
  switch (value.index()) {
    case 0: writer.value(std::get<bool>(value)); break;
    case 1: writer.value(std::get<std::int64_t>(value)); break;
    case 2: writer.value(std::get<std::uint64_t>(value)); break;
    case 3: writer.value(std::get<double>(value)); break;
    default: writer.value(std::get<std::string>(value)); break;
  }
}

std::string render(const Row::Value& value, int precision) {
  switch (value.index()) {
    case 0: return std::get<bool>(value) ? "yes" : "no";
    case 1: return fmt(std::get<std::int64_t>(value));
    case 2: return fmt(std::get<std::uint64_t>(value));
    case 3: return fmt(std::get<double>(value), precision);
    default: return std::get<std::string>(value);
  }
}

}  // namespace

const Row::Value& Row::at(const std::string& key) const {
  const auto it =
      std::find_if(cells.begin(), cells.end(),
                   [&](const auto& cell) { return cell.first == key; });
  OSP_REQUIRE_MSG(it != cells.end(), "row has no cell '" << key << "'");
  return it->second;
}

JsonSink::JsonSink(const std::string& name, std::size_t threads)
    : file_("BENCH_" + name + ".json"), writer_(file_) {
  OSP_REQUIRE_MSG(file_.good(), "cannot open BENCH_" << name
                                                     << ".json for writing");
  writer_.begin_object()
      .kv("bench", name)
      .kv("threads", static_cast<std::uint64_t>(threads))
      .key("results")
      .begin_array();
}

JsonSink::JsonSink(std::ostream& os, const std::string& name,
                   std::size_t threads)
    : writer_(os) {
  writer_.begin_object()
      .kv("bench", name)
      .kv("threads", static_cast<std::uint64_t>(threads))
      .key("results")
      .begin_array();
}

JsonSink::~JsonSink() { close(); }

void JsonSink::write(const Row& row) {
  OSP_REQUIRE_MSG(!closed_, "JsonSink written after close()");
  writer_.begin_object();
  for (const auto& [key, value] : row.cells) {
    writer_.key(key);
    replay(writer_, value);
  }
  writer_.end_object();
}

void JsonSink::close() {
  if (closed_) return;
  closed_ = true;
  writer_.end_array().end_object();
  if (file_.is_open())
    file_ << '\n';
}

void TableSink::write(const Row& row) {
  if (table_ == nullptr) {
    columns_.clear();
    for (const auto& [key, value] : row.cells) {
      (void)value;
      columns_.push_back(key);
    }
    table_ = std::make_unique<Table>(columns_);
  }
  OSP_REQUIRE_MSG(row.cells.size() == columns_.size(),
                  "TableSink row arity changed mid-stream");
  std::vector<std::string> cells;
  cells.reserve(row.cells.size());
  for (std::size_t i = 0; i < row.cells.size(); ++i) {
    OSP_REQUIRE_MSG(row.cells[i].first == columns_[i],
                    "TableSink row keys changed mid-stream ('"
                        << row.cells[i].first << "' vs '" << columns_[i]
                        << "')");
    cells.push_back(render(row.cells[i].second, precision_));
  }
  table_->row(std::move(cells));
}

void TableSink::print(std::ostream& os) const {
  if (table_ != nullptr) table_->print(os);
}

}  // namespace osp::api
