#include "common/table_printer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace dgcl {
namespace {

// Columns are padded by code point, not byte, so that cells holding UTF-8
// such as "—" or "×" line up: every byte but a continuation byte starts one.
size_t DisplayWidth(const std::string& cell) {
  return std::count_if(cell.begin(), cell.end(),
                       [](char c) { return (static_cast<unsigned char>(c) & 0xC0) != 0x80; });
}

}  // namespace

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Render(const std::string& title) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = DisplayWidth(headers_[c]);
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], DisplayWidth(row[c]));
    }
  }

  std::ostringstream out;
  if (!title.empty()) {
    out << title << "\n";
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      out << row[c];
      out << std::string(widths[c] - DisplayWidth(row[c]), ' ');
    }
    out << " |\n";
  };
  auto emit_rule = [&]() {
    for (size_t c = 0; c < widths.size(); ++c) {
      out << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
    }
    out << "-|\n";
  };
  emit_rule();
  emit_row(headers_);
  emit_rule();
  for (const auto& row : rows_) {
    emit_row(row);
  }
  emit_rule();
  return out.str();
}

std::string TablePrinter::Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TablePrinter::FmtInt(long long value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", value);
  return buf;
}

std::string TablePrinter::FmtBytes(double bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, units[unit]);
  return buf;
}

}  // namespace dgcl
