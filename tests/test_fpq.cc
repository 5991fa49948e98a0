// Tests for the FPQ columnar file format: round-trips, row-group and
// page structure, zone-map and Bloom pruning, dictionary encoding, and
// the late-materialization property that pruning never changes results,
// and corrupt footers that must be refused with a Status.

#include "tests/test_util.h"

#include <cstring>
#include <fstream>
#include <iterator>

#include "format/fpq.h"
#include "format/fpq_internal.h"

namespace fusion {
namespace test {
namespace {

using format::ColumnPredicate;
using format::ColumnStats;
using format::RowSelection;
namespace fpq = format::fpq;

RecordBatchPtr MakeDataBatch(int64_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<int64_t> ids(n);
  std::vector<double> values(n);
  std::vector<std::string> tags(n);
  std::vector<bool> valid(n);
  for (int64_t i = 0; i < n; ++i) {
    ids[i] = i;
    values[i] = static_cast<double>(rng() % 10000) / 10.0;
    tags[i] = "tag" + std::to_string(rng() % 20);
    valid[i] = rng() % 10 != 0;
  }
  auto schema = fusion::schema({Field("id", int64(), false),
                                Field("value", float64(), true),
                                Field("tag", utf8(), false)});
  return std::make_shared<RecordBatch>(
      schema, n,
      std::vector<ArrayPtr>{MakeInt64Array(ids), MakeFloat64Array(values, valid),
                            MakeStringArray(tags)});
}

TEST(RowSelectionTest, FromMaskAndCount) {
  auto s = RowSelection::FromMask({true, true, false, true, false, false, true});
  EXPECT_EQ(s.ranges().size(), 3u);
  EXPECT_EQ(s.CountRows(), 4);
  EXPECT_TRUE(s.Overlaps(0, 1));
  EXPECT_FALSE(s.Overlaps(4, 6));
  EXPECT_TRUE(s.Overlaps(5, 7));
}

TEST(RowSelectionTest, Intersect) {
  auto a = RowSelection::FromMask({true, true, true, false, true, true});
  auto b = RowSelection::FromMask({false, true, true, true, true, false});
  auto c = a.Intersect(b);
  EXPECT_EQ(c.CountRows(), 3);  // rows 1,2,4
  EXPECT_TRUE(c.Overlaps(1, 3));
  EXPECT_FALSE(c.Overlaps(3, 4));
}

TEST(BloomFilterTest, NoFalseNegatives) {
  format::BloomFilter bloom(1000);
  std::mt19937 rng(3);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(rng());
  for (uint64_t k : keys) bloom.Insert(k);
  for (uint64_t k : keys) EXPECT_TRUE(bloom.MightContain(k));
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  format::BloomFilter bloom(1000);
  std::mt19937 rng(4);
  for (int i = 0; i < 1000; ++i) bloom.Insert(rng() | 1);  // odd-ish keys
  int false_positives = 0;
  std::mt19937 probe_rng(5);
  for (int i = 0; i < 10000; ++i) {
    if (bloom.MightContain(probe_rng() << 20)) ++false_positives;
  }
  EXPECT_LT(false_positives, 600);  // ~1% design rate; generous bound
}

TEST(PredicateTest, StatsMayMatch) {
  ColumnStats stats;
  stats.min = Scalar::Int64(10);
  stats.max = Scalar::Int64(20);
  stats.row_count = 100;
  auto pred = [](ColumnPredicate::Op op, int64_t v) {
    return ColumnPredicate{"c", op, {Scalar::Int64(v)}};
  };
  using Op = ColumnPredicate::Op;
  EXPECT_TRUE(StatsMayMatch(pred(Op::kEq, 15), stats));
  EXPECT_FALSE(StatsMayMatch(pred(Op::kEq, 25), stats));
  EXPECT_FALSE(StatsMayMatch(pred(Op::kEq, 5), stats));
  EXPECT_FALSE(StatsMayMatch(pred(Op::kLt, 10), stats));
  EXPECT_TRUE(StatsMayMatch(pred(Op::kLt, 11), stats));
  EXPECT_FALSE(StatsMayMatch(pred(Op::kGt, 20), stats));
  EXPECT_TRUE(StatsMayMatch(pred(Op::kGtEq, 20), stats));
  EXPECT_TRUE(StatsMayMatch({"c", Op::kIn,
                             {Scalar::Int64(1), Scalar::Int64(12)}},
                            stats));
  EXPECT_FALSE(StatsMayMatch({"c", Op::kIn, {Scalar::Int64(1)}}, stats));
  // Null-related stats.
  stats.null_count = 0;
  EXPECT_FALSE(StatsMayMatch({"c", Op::kIsNull, {}}, stats));
  stats.null_count = 5;
  EXPECT_TRUE(StatsMayMatch({"c", Op::kIsNull, {}}, stats));
}

TEST(FpqTest, RoundTripSingleRowGroup) {
  auto batch = MakeDataBatch(1000, 1);
  std::string path = "/tmp/fusion_test_rt.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  EXPECT_EQ(reader->num_rows(), 1000);
  EXPECT_EQ(reader->num_row_groups(), 1);
  ASSERT_OK_AND_ASSIGN(auto back, reader->ReadRowGroup(0, {0, 1, 2}));
  EXPECT_TRUE(batch->Equals(*back));
}

TEST(FpqTest, RoundTripMultipleRowGroupsAndPages) {
  auto batch = MakeDataBatch(10000, 2);
  fpq::WriteOptions options;
  options.row_group_rows = 3000;
  options.page_rows = 500;
  std::string path = "/tmp/fusion_test_rt_multi.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), SliceBatch(batch, 1000), options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  EXPECT_EQ(reader->num_row_groups(), 4);  // 3000+3000+3000+1000
  EXPECT_EQ(reader->num_rows(), 10000);
  // Reassemble and compare.
  std::vector<RecordBatchPtr> parts;
  for (int g = 0; g < reader->num_row_groups(); ++g) {
    ASSERT_OK_AND_ASSIGN(auto rg, reader->ReadRowGroup(g, {0, 1, 2}));
    parts.push_back(rg);
  }
  ASSERT_OK_AND_ASSIGN(auto merged, ConcatenateBatches(batch->schema(), parts));
  EXPECT_TRUE(batch->Equals(*merged));
}

TEST(FpqTest, DictionaryEncodingKicksInAndRoundTrips) {
  // 20 distinct tags over 5000 rows -> dictionary-encoded chunk.
  auto batch = MakeDataBatch(5000, 3);
  std::string path = "/tmp/fusion_test_dict.fpq";
  fpq::WriteOptions options;
  options.page_rows = 700;
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  EXPECT_EQ(reader->row_group(0).columns[2].encoding,
            fpq::Encoding::kDictionary);
  ASSERT_OK_AND_ASSIGN(auto back, reader->ReadRowGroup(0, {2}));
  EXPECT_TRUE(ArraysEqual(*batch->column(2), *back->column(0)));
}

TEST(FpqTest, RowGroupPruningByZoneMap) {
  auto batch = MakeDataBatch(8000, 4);  // id = 0..7999 ascending
  fpq::WriteOptions options;
  options.row_group_rows = 2000;
  std::string path = "/tmp/fusion_test_prune.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  std::vector<ColumnPredicate> preds = {
      {"id", ColumnPredicate::Op::kGtEq, {Scalar::Int64(7000)}}};
  int may_match = 0;
  for (int g = 0; g < reader->num_row_groups(); ++g) {
    ASSERT_OK_AND_ASSIGN(bool match, reader->RowGroupMayMatch(g, preds));
    if (match) ++may_match;
  }
  EXPECT_EQ(may_match, 1);  // only the last row group
}

TEST(FpqTest, BloomFilterPrunesPointLookups) {
  auto batch = MakeDataBatch(4000, 5);
  std::string path = "/tmp/fusion_test_bloom.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  // A tag that never occurs: zone maps (min/max strings) may overlap but
  // the Bloom filter rejects it.
  std::vector<ColumnPredicate> preds = {
      {"tag", ColumnPredicate::Op::kEq, {Scalar::String("tag999zzz")}}};
  ASSERT_OK_AND_ASSIGN(bool match, reader->RowGroupMayMatch(0, preds));
  EXPECT_FALSE(match);
  // An existing tag must pass.
  std::vector<ColumnPredicate> hit = {
      {"tag", ColumnPredicate::Op::kEq, {Scalar::String("tag5")}}};
  ASSERT_OK_AND_ASSIGN(bool match2, reader->RowGroupMayMatch(0, hit));
  EXPECT_TRUE(match2);
}

TEST(FpqTest, LateMaterializationSkipsPages) {
  auto batch = MakeDataBatch(8192, 6);
  fpq::WriteOptions options;
  options.page_rows = 1024;
  std::string path = "/tmp/fusion_test_pages.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  std::vector<ColumnPredicate> preds = {
      {"id", ColumnPredicate::Op::kLt, {Scalar::Int64(100)}}};
  fpq::ScanMetrics metrics;
  ASSERT_OK_AND_ASSIGN(auto out,
                       reader->ScanRowGroup(0, {0, 2}, preds, true, &metrics));
  EXPECT_EQ(out->num_rows(), 100);
  EXPECT_GT(metrics.pages_skipped, 0);
  EXPECT_EQ(metrics.rows_selected, 100);
}

/// Property: scanning with pushdown+late materialization returns exactly
/// the rows a full scan + post-filter returns, for random predicates.
TEST(FpqTest, PushdownEquivalenceProperty) {
  auto batch = MakeDataBatch(6000, 7);
  fpq::WriteOptions options;
  options.row_group_rows = 2048;
  options.page_rows = 256;
  std::string path = "/tmp/fusion_test_equiv.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));

  std::mt19937 rng(8);
  using Op = ColumnPredicate::Op;
  const Op ops[] = {Op::kEq, Op::kNeq, Op::kLt, Op::kLtEq, Op::kGt, Op::kGtEq};
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<ColumnPredicate> preds;
    int num_preds = 1 + static_cast<int>(rng() % 2);
    for (int p = 0; p < num_preds; ++p) {
      if (rng() % 2 == 0) {
        preds.push_back({"id", ops[rng() % 6],
                         {Scalar::Int64(static_cast<int64_t>(rng() % 7000))}});
      } else {
        preds.push_back(
            {"value", ops[rng() % 6],
             {Scalar::Float64(static_cast<double>(rng() % 10000) / 10.0)}});
      }
    }
    for (bool late : {true, false}) {
      std::vector<RecordBatchPtr> with_pushdown;
      std::vector<RecordBatchPtr> without;
      for (int g = 0; g < reader->num_row_groups(); ++g) {
        ASSERT_OK_AND_ASSIGN(bool may, reader->RowGroupMayMatch(g, preds));
        if (may) {
          ASSERT_OK_AND_ASSIGN(auto scanned,
                               reader->ScanRowGroup(g, {0, 1, 2}, preds, late));
          with_pushdown.push_back(scanned);
        }
        ASSERT_OK_AND_ASSIGN(auto full,
                             reader->ScanRowGroup(g, {0, 1, 2}, preds,
                                                  /*late=*/false));
        without.push_back(full);
      }
      EXPECT_EQ(SortedStringRows(with_pushdown), SortedStringRows(without))
          << "trial " << trial << " late=" << late;
    }
  }
}

TEST(FpqTest, ReadSubsetOfColumns) {
  auto batch = MakeDataBatch(500, 9);
  std::string path = "/tmp/fusion_test_proj.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  ASSERT_OK_AND_ASSIGN(auto out, reader->ReadRowGroup(0, {2, 0}));
  EXPECT_EQ(out->num_columns(), 2);
  EXPECT_EQ(out->schema()->field(0).name(), "tag");
  EXPECT_EQ(out->schema()->field(1).name(), "id");
}

TEST(FpqTest, CorruptFileErrors) {
  std::string path = "/tmp/fusion_test_corrupt.fpq";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not an fpq file at all, not even close", f);
  std::fclose(f);
  EXPECT_RAISES(fpq::Reader::Open(path).status());
  EXPECT_RAISES(fpq::Reader::Open("/tmp/does_not_exist.fpq").status());
}

TEST(FpqTest, StatsRecordedPerRowGroup) {
  auto batch = MakeDataBatch(4000, 10);
  fpq::WriteOptions options;
  options.row_group_rows = 1000;
  std::string path = "/tmp/fusion_test_stats.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  // id is ascending: rg1's min must be 1000.
  const auto& chunk = reader->row_group(1).columns[0];
  EXPECT_EQ(chunk.stats.min.int_value(), 1000);
  EXPECT_EQ(chunk.stats.max.int_value(), 1999);
  EXPECT_EQ(chunk.stats.row_count, 1000);
  // value column has nulls; count recorded.
  EXPECT_GT(reader->row_group(1).columns[1].stats.null_count, 0);
}

// ------------------------------------------------------ untrusted footers

/// A footer field that locates data: its name, the file offset of its
/// little-endian U64 and the value written there.
struct FooterField {
  std::string name;
  size_t pos;
  uint64_t value;
};

/// Walk the footer of a written file in Reader::Open's order, recording
/// every field that places rows or bytes.
std::vector<FooterField> LocateFooterFields(const std::string& bytes) {
  namespace internal = fpq::internal;
  std::vector<FooterField> out;
  uint64_t footer_len;
  uint32_t magic;
  std::memcpy(&footer_len, bytes.data() + bytes.size() - 12, 8);
  std::memcpy(&magic, bytes.data() + bytes.size() - 4, 4);
  const size_t base = bytes.size() - 12 - footer_len;
  const auto* data = reinterpret_cast<const uint8_t*>(bytes.data()) + base;
  internal::ByteReader r(data, footer_len);
  auto u64 = [&](const std::string& name) {
    const size_t pos = base + static_cast<size_t>(r.cursor() - data);
    uint64_t v = r.U64().ValueOrDie();
    if (!name.empty()) out.push_back({name, pos, v});
    return v;
  };
  const uint32_t num_fields = r.U32().ValueOrDie();
  std::vector<DataType> types;
  for (uint32_t i = 0; i < num_fields; ++i) {
    r.Str().ValueOrDie();
    DataType type(static_cast<TypeId>(r.U8().ValueOrDie()));
    r.U8().ValueOrDie();  // nullable
    EXPECT_FALSE(type.is_decimal());
    types.push_back(type);
  }
  u64("");  // file rows
  const uint32_t num_rgs = r.U32().ValueOrDie();
  for (uint32_t g = 0; g < num_rgs; ++g) {
    u64("row group rows");
    for (DataType type : types) {
      r.U8().ValueOrDie();  // encoding
      u64("chunk offset");
      u64("chunk size");
      u64("dictionary size");
      internal::ReadScalar(&r, type).ValueOrDie();
      internal::ReadScalar(&r, type).ValueOrDie();
      u64("");  // nulls
      if (magic == fpq::kMagicV2) u64("");  // ndv
      u64("bloom offset");
      if (u64("bloom size") == 0) out.erase(out.end() - 2);  // no filter to place
      const uint32_t num_pages = r.U32().ValueOrDie();
      for (uint32_t p = 0; p < num_pages; ++p) {
        u64("page first row");
        u64("page rows");
        u64("page offset");
        u64("page size");
        internal::ReadScalar(&r, type).ValueOrDie();
        internal::ReadScalar(&r, type).ValueOrDie();
        u64("");  // nulls
      }
    }
  }
  EXPECT_EQ(r.remaining(), 0u);
  return out;
}

/// Open the file and read everything through each decode path: Bloom
/// probes, full row groups and predicate scans.
Status OpenAndScan(const std::string& path) {
  FUSION_ASSIGN_OR_RAISE(auto reader, fpq::Reader::Open(path));
  const std::vector<int> all = {0, 1, 2};
  const std::vector<ColumnPredicate> point = {
      {"tag", ColumnPredicate::Op::kEq, {Scalar::String("tag3")}}};
  const std::vector<ColumnPredicate> range = {
      {"id", ColumnPredicate::Op::kLt, {Scalar::Int64(500)}}};
  for (int g = 0; g < reader->num_row_groups(); ++g) {
    FUSION_RETURN_NOT_OK(reader->RowGroupMayMatch(g, point).status());
    FUSION_RETURN_NOT_OK(reader->ReadRowGroup(g, all).status());
    FUSION_RETURN_NOT_OK(reader->ScanRowGroup(g, all, range).status());
  }
  return Status::OK();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(FpqTest, CorruptFooterFieldsReturnStatus) {
  auto batch = MakeDataBatch(3000, 11);
  fpq::WriteOptions options;
  options.row_group_rows = 1000;
  options.page_rows = 300;
  const std::string good = "/tmp/fusion_test_footer_good.fpq";
  const std::string bad = "/tmp/fusion_test_footer_bad.fpq";
  ASSERT_OK(fpq::WriteFile(good, batch->schema(), {batch}, options));
  std::string bytes;
  {
    std::ifstream in(good, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_OK(OpenAndScan(good));
  auto fields = LocateFooterFields(bytes);
  ASSERT_GT(fields.size(), 100u);

  // Each field, set to a value that no longer fits the file, the chunk
  // or the row group: Open must refuse it.
  const uint64_t past_end = bytes.size();
  for (const FooterField& field : fields) {
    std::vector<uint64_t> values = {UINT64_MAX, uint64_t{1} << 63};
    if (field.name == "row group rows" || field.name == "page first row" ||
        field.name == "page rows") {
      values.push_back(field.value + 1);
    } else if (field.name == "bloom size") {
      values.push_back(4);  // not a whole number of blocks
    } else {
      values.push_back(past_end);
    }
    for (uint64_t v : values) {
      std::string corrupt = bytes;
      std::memcpy(corrupt.data() + field.pos, &v, 8);
      WriteBytes(bad, corrupt);
      Status st = OpenAndScan(bad);
      EXPECT_TRUE(st.IsIOError())
          << field.name << " at " << field.pos << " = " << v << ": "
          << st.ToString();
    }
  }

  // Seeded random byte overwrites anywhere in the footer and trailer:
  // any outcome but a crash (or a sanitizer report) is acceptable.
  std::mt19937 rng(20240617);
  uint64_t footer_len;
  std::memcpy(&footer_len, bytes.data() + bytes.size() - 12, 8);
  const size_t footer_start = bytes.size() - 12 - footer_len;
  int refused = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string corrupt = bytes;
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = footer_start + rng() % (footer_len + 8);
      corrupt[pos] = static_cast<char>(rng() & 0xff);
    }
    WriteBytes(bad, corrupt);
    if (!OpenAndScan(bad).ok()) ++refused;
  }
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace test
}  // namespace fusion
