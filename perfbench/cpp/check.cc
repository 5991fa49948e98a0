#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "arrow/array.h"

namespace perfbench {

using namespace fusion;  // NOLINT

Rows ToRows(const std::vector<RecordBatchPtr>& batches) {
  Rows rows;
  for (const auto& batch : batches) {
    for (int64_t r = 0; r < batch->num_rows(); ++r) {
      Row row(static_cast<size_t>(batch->num_columns()));
      for (int c = 0; c < batch->num_columns(); ++c) {
        const Array& col = *batch->column(c);
        Cell& cell = row[static_cast<size_t>(c)];
        if (col.IsNull(r)) {
          cell.is_null = true;
          cell.text = "null";
          continue;
        }
        const DataType type = col.type();
        if (type.is_string_like()) {
          cell.text = std::string(StringLikeValue(col, r));
        } else if (type.is_decimal()) {
          cell.is_number = cell.is_decimal = true;
          cell.unscaled = checked_cast<Decimal128Array>(col).Value(r).ToInt128();
          cell.scale = type.scale();
          cell.number = static_cast<double>(cell.unscaled) / std::pow(10.0, cell.scale);
          cell.text = col.ValueToString(r);
        } else if (type.is_floating()) {
          cell.is_number = true;
          cell.number = checked_cast<Float64Array>(col).Value(r);
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.17g", cell.number);
          cell.text = buf;
        } else if (type.is_integer()) {
          cell.is_number = true;
          cell.number = type.id() == TypeId::kInt64
                            ? static_cast<double>(checked_cast<Int64Array>(col).Value(r))
                            : static_cast<double>(checked_cast<Int32Array>(col).Value(r));
          cell.text = col.ValueToString(r);
        } else {
          cell.text = col.ValueToString(r);  // dates, timestamps, booleans
        }
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

namespace {

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 + 1e-6 * std::max(std::fabs(a), std::fabs(b));
}

/// Exact integers and decimals compare exactly; anything computed in
/// floating point compares with tolerance.
bool Inexact(const Cell& c) { return c.is_number && !c.is_decimal && c.text.find_first_of(".eEn") != std::string::npos; }

/// Coarse canonical text used only to line rows up before the
/// cell-by-cell comparison.
std::string Canon(const Row& row) {
  std::string out;
  for (const Cell& c : row) {
    if (c.is_number && !c.is_null) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.6g", c.number);
      out += buf;
    } else {
      out += c.text;
    }
    out += '\x1f';
  }
  return out;
}

/// -1 / 0 / +1, numbers by value (ties within tolerance), text bytewise.
int CompareCells(const Cell& a, const Cell& b) {
  if (a.is_null || b.is_null) return a.is_null == b.is_null ? 0 : (a.is_null ? -1 : 1);
  if (a.is_number && b.is_number) {
    if (SameCell(a, b)) return 0;
    return a.number < b.number ? -1 : 1;
  }
  return a.text < b.text ? -1 : (a.text == b.text ? 0 : 1);
}

struct SortKey {
  size_t column;
  bool desc;
};

std::vector<SortKey> ParseOrder(const std::string& spec) {
  std::vector<SortKey> keys;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    std::string item = spec.substr(pos, end - pos);
    keys.push_back({static_cast<size_t>(std::stoul(item)), item.back() == 'd'});
    pos = end + 1;
  }
  return keys;
}

int CompareKeys(const Row& a, const Row& b, const std::vector<SortKey>& keys) {
  for (const auto& k : keys) {
    int c = CompareCells(a[k.column], b[k.column]);
    if (c != 0) return k.desc ? -c : c;
  }
  return 0;
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameCell(a[i], b[i])) return false;
  }
  return true;
}

std::string RowText(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) out += (i ? "|" : "") + row[i].text;
  return out;
}

/// Same rows in any order.
std::string SameMultiset(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) {
    return std::to_string(a.size()) + " rows, oracle has " + std::to_string(b.size());
  }
  auto sorted = [](const Rows& rows) {
    std::vector<std::pair<std::string, const Row*>> keyed;
    keyed.reserve(rows.size());
    for (const Row& r : rows) keyed.emplace_back(Canon(r), &r);
    std::sort(keyed.begin(), keyed.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    return keyed;
  };
  const auto sa = sorted(a);
  const auto sb = sorted(b);
  for (size_t i = 0; i < sa.size(); ++i) {
    if (!SameRow(*sa[i].second, *sb[i].second)) {
      return "row " + RowText(*sa[i].second) + " vs oracle " + RowText(*sb[i].second);
    }
  }
  return "";
}

}  // namespace

bool SameNumber(const Cell& cell, double expected) {
  return cell.is_number && Close(cell.number, expected);
}

bool SameDecimal(const Cell& cell, __int128 expected, int scale) {
  if (!cell.is_decimal) return false;
  __int128 a = cell.unscaled, b = expected;
  for (int s = cell.scale; s < scale; ++s) a *= 10;
  for (int s = scale; s < cell.scale; ++s) b *= 10;
  return a == b;
}

bool SameCell(const Cell& a, const Cell& b) {
  if (a.is_null || b.is_null) return a.is_null == b.is_null;
  if (a.is_decimal && b.is_decimal) return SameDecimal(a, b.unscaled, b.scale);
  if (a.is_number && b.is_number) {
    if (Inexact(a) || Inexact(b) || a.is_decimal || b.is_decimal) return Close(a.number, b.number);
    return a.text == b.text;
  }
  return a.text == b.text;
}

std::vector<uint64_t> RowHashes(const Rows& rows) {
  std::vector<uint64_t> hashes;
  hashes.reserve(rows.size());
  for (const Row& r : rows) hashes.push_back(std::hash<std::string>{}(Canon(r)));
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

std::string CompareWithFullAnswer(const Query& query, const Rows& engine,
                                  const std::vector<uint64_t>& full) {
  const size_t want = std::min<size_t>(static_cast<size_t>(query.limit), full.size());
  if (engine.size() != want) {
    return std::to_string(engine.size()) + " rows, LIMIT requires " + std::to_string(want);
  }
  const std::vector<uint64_t> got = RowHashes(engine);
  for (size_t i = 0; i < got.size();) {
    size_t j = i;
    while (j < got.size() && got[j] == got[i]) ++j;
    const auto [lo, hi] = std::equal_range(full.begin(), full.end(), got[i]);
    if (static_cast<size_t>(hi - lo) < j - i) {
      for (const Row& r : engine) {
        if (std::hash<std::string>{}(Canon(r)) == got[i]) {
          return "row not in the full answer: " + RowText(r);
        }
      }
    }
    i = j;
  }
  return "";
}

std::string CompareWithOracle(const Query& query, const Rows& engine, const Rows& oracle) {
  if (!engine.empty() && !oracle.empty() && engine[0].size() != oracle[0].size()) {
    return "column count differs";
  }
  if (query.limit >= 0 && static_cast<int64_t>(engine.size()) > query.limit) {
    return "returned " + std::to_string(engine.size()) + " rows past LIMIT";
  }
  const std::vector<SortKey> keys = ParseOrder(query.order);
  if (keys.empty()) return SameMultiset(engine, oracle);
  for (size_t i = 1; i < engine.size(); ++i) {
    if (CompareKeys(engine[i - 1], engine[i], keys) > 0) {
      return "not sorted at row " + std::to_string(i) + ": " + RowText(engine[i]);
    }
  }
  if (engine.size() != oracle.size()) {
    return std::to_string(engine.size()) + " rows, oracle has " + std::to_string(oracle.size());
  }
  if (query.limit < 0) return SameMultiset(engine, oracle);
  // With a LIMIT, rows tied on the boundary key may be any of the tied
  // rows: the key sequence must match, and every row off the boundary.
  for (size_t i = 0; i < engine.size(); ++i) {
    if (CompareKeys(engine[i], oracle[i], keys) != 0) {
      return "sort key differs at row " + std::to_string(i) + ": " + RowText(engine[i]) +
             " vs oracle " + RowText(oracle[i]);
    }
  }
  auto ambiguous = [&](const Row& r) {
    if (engine.empty()) return false;
    if (CompareKeys(r, engine.back(), keys) == 0) return true;
    return query.offset && CompareKeys(r, engine.front(), keys) == 0;
  };
  Rows a, b;
  for (const Row& r : engine) {
    if (!ambiguous(r)) a.push_back(r);
  }
  for (const Row& r : oracle) {
    if (!ambiguous(r)) b.push_back(r);
  }
  return SameMultiset(a, b);
}

}  // namespace perfbench
