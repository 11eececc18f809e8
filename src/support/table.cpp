#include "support/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "support/check.hpp"

namespace rcarb {

void Table::set_header(std::vector<std::string> header) {
  RCARB_CHECK(rows_.empty(), "set_header must precede add_row");
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  RCARB_CHECK(row.size() == header_.size(),
              "row arity must match the header");
  rows_.push_back(std::move(row));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto rule = [&] {
    std::string s = "+";
    for (auto w : widths) s += std::string(w + 2, '-') + "+";
    return s + "\n";
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict on the
    // chained operator+ form.
    for (std::size_t c = 0; c < cells.size(); ++c) {
      s += ' ';
      s += cells[c];
      s.append(widths[c] - cells[c].size(), ' ');
      s += " |";
    }
    return s + "\n";
  };

  std::ostringstream os;
  os << "== " << title_ << " ==\n";
  os << rule() << line(header_) << rule();
  for (const auto& row : rows_) os << line(row);
  os << rule();
  return os.str();
}

void Table::print() const {
  const std::string s = render();
  std::fwrite(s.data(), 1, s.size(), stdout);
  std::fflush(stdout);
}

std::string fmt_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

}  // namespace rcarb
