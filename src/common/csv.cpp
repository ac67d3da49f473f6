#include "common/csv.h"

#include <cstdio>
#include <stdexcept>

namespace conscale {

std::string format_cell(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

CsvWriter::CsvWriter(const std::string& path) : file_(path), out_(&file_) {
  if (!file_) {
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
}

CsvWriter::CsvWriter(std::ostream& out) : out_(&out) {}

std::string CsvWriter::escape(std::string_view cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n") != std::string_view::npos;
  if (!needs_quotes) return std::string(cell);
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_cells(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) *out_ << ',';
    *out_ << escape(cells[i]);
  }
  *out_ << '\n';
}

void CsvWriter::header(std::initializer_list<std::string_view> columns) {
  std::vector<std::string> cells;
  cells.reserve(columns.size());
  for (auto c : columns) cells.emplace_back(c);
  write_cells(cells);
}

void CsvWriter::header(const std::vector<std::string>& columns) {
  write_cells(columns);
}

void CsvWriter::row(std::initializer_list<double> values) {
  row(std::vector<double>(values));
}

void CsvWriter::row(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(format_cell(v));
  write_cells(cells);
  ++rows_;
}

void CsvWriter::raw_row(const std::vector<std::string>& cells) {
  write_cells(cells);
  ++rows_;
}

}  // namespace conscale
