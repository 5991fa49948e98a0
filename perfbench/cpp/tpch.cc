// TPC-H: the spec's schema, distributions and 22 queries, with the six
// money columns as DECIMAL(15,2). Q1 and Q6 are checked against exact
// int128 sums tallied from the generated rows.

#include <cmath>
#include <map>

#include "arrow/builder.h"
#include "check.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

using namespace fusion;  // NOLINT

namespace {

const char* kNations[25] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
    "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const int kNationRegion[25] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                               4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
const char* kRegions[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"};
const char* kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                            "HOUSEHOLD"};
const char* kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                              "5-LOW"};
const char* kShipModes[7] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"};
const char* kInstructs[4] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                             "TAKE BACK RETURN"};
const char* kTypes1[6] = {"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"};
const char* kTypes2[5] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"};
const char* kTypes3[5] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
const char* kContainers1[5] = {"SM", "MED", "LG", "JUMBO", "WRAP"};
const char* kContainers2[8] = {"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"};
const char* kColors[16] = {"almond", "antique", "aquamarine", "azure", "beige",
                           "bisque", "black", "blanched", "blue", "blush",
                           "brown", "burlywood", "chartreuse", "forest",
                           "frosted", "green"};
const char* kNouns[8] = {"packages", "deposits", "requests", "accounts", "ideas",
                         "platelets", "theodolites", "instructions"};

std::string Comment(Rng* rng) {
  std::string out = kColors[rng->Uniform(0, 15)];
  out += " ";
  out += kNouns[rng->Uniform(0, 7)];
  out += " sleep quickly after the ";
  out += kColors[rng->Uniform(0, 15)];
  out += " ";
  out += kNouns[rng->Uniform(0, 7)];
  // Rare markers targeted by the Q13 / Q16 predicates.
  if (rng->Next() % 50 == 0) out += " special requests ";
  if (rng->Next() % 80 == 0) out += " Customer Complaints ";
  return out;
}

std::string Phone(Rng* rng, int64_t nationkey) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%02d-%03d-%03d-%04d", static_cast<int>(10 + nationkey),
                static_cast<int>(rng->Uniform(100, 999)),
                static_cast<int>(rng->Uniform(100, 999)),
                static_cast<int>(rng->Uniform(1000, 9999)));
  return buf;
}

/// Retail price in cents, from the TPC-H spec formula.
int64_t RetailCents(int64_t partkey) {
  return 90000 + (partkey % 20000) * 100 + (partkey % 1000);
}

Decimal128 Cents(int64_t cents) { return Decimal128(cents); }

TableData MakeTable(std::string name, std::vector<Field> fields,
                    std::vector<ArrayBuilder*> builders, int64_t rows) {
  std::vector<ArrayPtr> columns;
  for (auto* b : builders) columns.push_back(b->Finish().ValueOrDie());
  TableData t;
  t.name = std::move(name);
  t.schema = fusion::schema(std::move(fields));
  auto batch = std::make_shared<RecordBatch>(t.schema, rows, std::move(columns));
  t.batches = SliceBatch(batch, 64 * 1024);
  t.row_group_rows = 256 * 1024;
  return t;
}

/// Exact Q1 aggregates of one (returnflag, linestatus) group, in the
/// scales the SQL produces: price s2, price*(1-disc) s4, *(1+tax) s6.
struct Q1Group {
  double sum_qty = 0;
  __int128 sum_base = 0;
  __int128 sum_disc_price = 0;
  __int128 sum_charge = 0;
  __int128 sum_disc = 0;
  int64_t count = 0;
};

std::string CheckQ1(const std::map<std::string, Q1Group>& expected,
                    const std::vector<RecordBatchPtr>& batches) {
  Rows rows = ToRows(batches);
  if (rows.size() != expected.size()) {
    return "Q1: " + std::to_string(rows.size()) + " groups, expected " +
           std::to_string(expected.size());
  }
  size_t i = 0;
  for (const auto& [key, g] : expected) {  // std::map order == ORDER BY
    const Row& row = rows[i++];
    if (row.size() != 10) return "Q1: wrong column count";
    if (row[0].text + row[1].text != key) return "Q1: group order or key " + key;
    const double n = static_cast<double>(g.count);
    std::string err;
    if (!SameNumber(row[2], g.sum_qty)) err = "sum_qty";
    if (!SameDecimal(row[3], g.sum_base, 2)) err = "sum_base_price";
    if (!SameDecimal(row[4], g.sum_disc_price, 4)) err = "sum_disc_price";
    if (!SameDecimal(row[5], g.sum_charge, 6)) err = "sum_charge";
    if (!SameNumber(row[6], g.sum_qty / n)) err = "avg_qty";
    // avg of a DECIMAL(15,2) column is rounded half away to scale 6.
    auto avg6 = [&](__int128 sum) { return (2 * sum * 10000 + g.count) / (2 * g.count); };
    if (!SameDecimal(row[7], avg6(g.sum_base), 6)) err = "avg_price";
    if (!SameDecimal(row[8], avg6(g.sum_disc), 6)) err = "avg_disc";
    if (row[9].text != std::to_string(g.count)) err = "count_order";
    if (!err.empty()) return "Q1: group " + key + " " + err + " differs";
  }
  return "";
}

const std::vector<Query>& TpchQueries();

}  // namespace

AnalyticWorkload MakeTpch(uint64_t seed, double sf) {
  const int64_t n_supplier = std::max<int64_t>(static_cast<int64_t>(10000 * sf), 10);
  const int64_t n_customer = std::max<int64_t>(static_cast<int64_t>(150000 * sf), 30);
  const int64_t n_part = std::max<int64_t>(static_cast<int64_t>(200000 * sf), 40);
  const int64_t n_orders = std::max<int64_t>(static_cast<int64_t>(1500000 * sf), 150);
  const DataType money = decimal128(15, 2);
  AnalyticWorkload w;

  {
    Rng rng(seed, 1);
    Int64Builder key;
    StringBuilder name, comment;
    for (int64_t r = 0; r < 5; ++r) {
      key.Append(r);
      name.Append(kRegions[r]);
      comment.Append(Comment(&rng));
    }
    w.tables.push_back(MakeTable("region",
                                 {Field("r_regionkey", int64(), false),
                                  Field("r_name", utf8(), false),
                                  Field("r_comment", utf8(), false)},
                                 {&key, &name, &comment}, 5));
  }
  {
    Rng rng(seed, 2);
    Int64Builder key, regionkey;
    StringBuilder name, comment;
    for (int64_t n = 0; n < 25; ++n) {
      key.Append(n);
      name.Append(kNations[n]);
      regionkey.Append(kNationRegion[n]);
      comment.Append(Comment(&rng));
    }
    w.tables.push_back(MakeTable(
        "nation",
        {Field("n_nationkey", int64(), false), Field("n_name", utf8(), false),
         Field("n_regionkey", int64(), false), Field("n_comment", utf8(), false)},
        {&key, &name, &regionkey, &comment}, 25));
  }
  {
    Rng rng(seed, 3);
    Int64Builder key, nationkey;
    StringBuilder name, address, phone, comment;
    Decimal128Builder acctbal(money);
    for (int64_t s = 1; s <= n_supplier; ++s) {
      key.Append(s);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Supplier#%09d", static_cast<int>(s));
      name.Append(buf);
      address.Append("addr " + std::to_string(rng.Uniform(1, 99999)));
      int64_t nk = rng.Uniform(0, 24);
      nationkey.Append(nk);
      phone.Append(Phone(&rng, nk));
      acctbal.Append(Cents(rng.Uniform(-99999, 999999)));
      comment.Append(Comment(&rng));
    }
    w.tables.push_back(MakeTable(
        "supplier",
        {Field("s_suppkey", int64(), false), Field("s_name", utf8(), false),
         Field("s_address", utf8(), false), Field("s_nationkey", int64(), false),
         Field("s_phone", utf8(), false), Field("s_acctbal", money, false),
         Field("s_comment", utf8(), false)},
        {&key, &name, &address, &nationkey, &phone, &acctbal, &comment}, n_supplier));
  }
  {
    Rng rng(seed, 4);
    Int64Builder key, nationkey;
    StringBuilder name, address, phone, segment, comment;
    Decimal128Builder acctbal(money);
    for (int64_t c = 1; c <= n_customer; ++c) {
      key.Append(c);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Customer#%09d", static_cast<int>(c));
      name.Append(buf);
      address.Append("addr " + std::to_string(rng.Uniform(1, 99999)));
      int64_t nk = rng.Uniform(0, 24);
      nationkey.Append(nk);
      phone.Append(Phone(&rng, nk));
      acctbal.Append(Cents(rng.Uniform(-99999, 999999)));
      segment.Append(kSegments[rng.Uniform(0, 4)]);
      comment.Append(Comment(&rng));
    }
    w.tables.push_back(MakeTable(
        "customer",
        {Field("c_custkey", int64(), false), Field("c_name", utf8(), false),
         Field("c_address", utf8(), false), Field("c_nationkey", int64(), false),
         Field("c_phone", utf8(), false), Field("c_acctbal", money, false),
         Field("c_mktsegment", utf8(), false), Field("c_comment", utf8(), false)},
        {&key, &name, &address, &nationkey, &phone, &acctbal, &segment, &comment},
        n_customer));
  }
  {
    Rng rng(seed, 5);
    Int64Builder key, size;
    StringBuilder name, mfgr, brand, type, container, comment;
    Decimal128Builder retail(money);
    for (int64_t p = 1; p <= n_part; ++p) {
      key.Append(p);
      std::string pname = kColors[rng.Uniform(0, 15)];
      pname += " ";
      pname += kColors[rng.Uniform(0, 15)];
      name.Append(pname);
      int m = static_cast<int>(rng.Uniform(1, 5));
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Manufacturer#%d", m);
      mfgr.Append(buf);
      std::snprintf(buf, sizeof(buf), "Brand#%d%d", m, static_cast<int>(rng.Uniform(1, 5)));
      brand.Append(buf);
      std::string t = kTypes1[rng.Uniform(0, 5)];
      t += " ";
      t += kTypes2[rng.Uniform(0, 4)];
      t += " ";
      t += kTypes3[rng.Uniform(0, 4)];
      type.Append(t);
      size.Append(rng.Uniform(1, 50));
      std::string cont = kContainers1[rng.Uniform(0, 4)];
      cont += " ";
      cont += kContainers2[rng.Uniform(0, 7)];
      container.Append(cont);
      retail.Append(Cents(RetailCents(p)));
      comment.Append(Comment(&rng));
    }
    w.tables.push_back(MakeTable(
        "part",
        {Field("p_partkey", int64(), false), Field("p_name", utf8(), false),
         Field("p_mfgr", utf8(), false), Field("p_brand", utf8(), false),
         Field("p_type", utf8(), false), Field("p_size", int64(), false),
         Field("p_container", utf8(), false), Field("p_retailprice", money, false),
         Field("p_comment", utf8(), false)},
        {&key, &name, &mfgr, &brand, &type, &size, &container, &retail, &comment},
        n_part));
  }
  {
    Rng rng(seed, 6);
    Int64Builder partkey, suppkey, availqty;
    Decimal128Builder supplycost(money);
    StringBuilder comment;
    for (int64_t p = 1; p <= n_part; ++p) {
      for (int s = 0; s < 4; ++s) {
        partkey.Append(p);
        suppkey.Append((p + s * (n_supplier / 4 + 1)) % n_supplier + 1);
        availqty.Append(rng.Uniform(1, 9999));
        supplycost.Append(Cents(rng.Uniform(100, 100000)));
        comment.Append(Comment(&rng));
      }
    }
    w.tables.push_back(MakeTable(
        "partsupp",
        {Field("ps_partkey", int64(), false), Field("ps_suppkey", int64(), false),
         Field("ps_availqty", int64(), false), Field("ps_supplycost", money, false),
         Field("ps_comment", utf8(), false)},
        {&partkey, &suppkey, &availqty, &supplycost, &comment}, n_part * 4));
  }

  std::map<std::string, Q1Group> q1;
  __int128 q6_revenue = 0;
  {
    Rng rng(seed, 7);
    const int32_t start_date = DaysFromCivil(1992, 1, 1);
    const int32_t end_date = DaysFromCivil(1998, 8, 2);
    const int32_t cutoff = DaysFromCivil(1995, 6, 17);
    const int32_t q1_ship_max = DaysFromCivil(1998, 9, 2);  // 1998-12-01 - 90 days
    const int32_t q6_lo = DaysFromCivil(1994, 1, 1);
    const int32_t q6_hi = DaysFromCivil(1995, 1, 1);

    Int64Builder o_key, o_custkey, o_shippriority;
    StringBuilder o_status, o_priority, o_clerk, o_comment;
    Decimal128Builder o_total(money);
    Date32Builder o_date;
    Int64Builder l_orderkey, l_partkey, l_suppkey, l_linenumber;
    Float64Builder l_quantity;
    Decimal128Builder l_extendedprice(money), l_discount(money), l_tax(money);
    StringBuilder l_returnflag, l_linestatus, l_shipinstruct, l_shipmode, l_comment;
    Date32Builder l_shipdate, l_commitdate, l_receiptdate;
    int64_t lineitem_rows = 0;

    for (int64_t o = 1; o <= n_orders; ++o) {
      o_key.Append(o);
      o_custkey.Append(rng.Uniform(1, n_customer));
      const auto odate = static_cast<int32_t>(rng.Uniform(start_date, end_date - 151));
      o_date.Append(odate);
      o_priority.Append(kPriorities[rng.Uniform(0, 4)]);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Clerk#%09d", static_cast<int>(rng.Uniform(1, 1000)));
      o_clerk.Append(buf);
      o_shippriority.Append(0);
      o_comment.Append(Comment(&rng));

      const int n_lines = static_cast<int>(rng.Uniform(1, 7));
      int64_t total_cents = 0;
      int open_lines = 0;
      for (int l = 1; l <= n_lines; ++l) {
        l_orderkey.Append(o);
        const int64_t pk = rng.Uniform(1, n_part);
        l_partkey.Append(pk);
        l_suppkey.Append((pk + rng.Uniform(0, 3) * (n_supplier / 4 + 1)) % n_supplier + 1);
        l_linenumber.Append(l);
        const int64_t qty = rng.Uniform(1, 50);
        l_quantity.Append(static_cast<double>(qty));
        const int64_t price = qty * RetailCents(pk) / 10;
        l_extendedprice.Append(Cents(price));
        const int64_t disc = rng.Uniform(0, 10);
        l_discount.Append(Cents(disc));
        const int64_t tax = rng.Uniform(0, 8);
        l_tax.Append(Cents(tax));
        const int32_t ship = odate + static_cast<int32_t>(rng.Uniform(1, 121));
        const int32_t commit = odate + static_cast<int32_t>(rng.Uniform(30, 90));
        const int32_t receipt = ship + static_cast<int32_t>(rng.Uniform(1, 30));
        l_shipdate.Append(ship);
        l_commitdate.Append(commit);
        l_receiptdate.Append(receipt);
        const char* flag = receipt <= cutoff ? (rng.Next() % 2 == 0 ? "R" : "A") : "N";
        l_returnflag.Append(flag);
        const char* status = ship > cutoff ? "O" : "F";
        l_linestatus.Append(status);
        if (ship > cutoff) ++open_lines;
        l_shipinstruct.Append(kInstructs[rng.Uniform(0, 3)]);
        l_shipmode.Append(kShipModes[rng.Uniform(0, 6)]);
        l_comment.Append(Comment(&rng));
        total_cents += price * (100 - disc) / 100;
        ++lineitem_rows;

        if (ship <= q1_ship_max) {
          Q1Group& g = q1[std::string(flag) + status];
          g.sum_qty += static_cast<double>(qty);
          g.sum_base += price;
          g.sum_disc_price += static_cast<__int128>(price) * (100 - disc);
          g.sum_charge += static_cast<__int128>(price) * (100 - disc) * (100 + tax);
          g.sum_disc += disc;
          g.count += 1;
        }
        if (ship >= q6_lo && ship < q6_hi && disc >= 5 && disc <= 7 && qty < 24) {
          q6_revenue += static_cast<__int128>(price) * disc;
        }
      }
      o_total.Append(Cents(total_cents));
      o_status.Append(open_lines == n_lines ? "O" : (open_lines == 0 ? "F" : "P"));
    }

    w.tables.push_back(MakeTable(
        "orders",
        {Field("o_orderkey", int64(), false), Field("o_custkey", int64(), false),
         Field("o_orderstatus", utf8(), false), Field("o_totalprice", money, false),
         Field("o_orderdate", date32(), false), Field("o_orderpriority", utf8(), false),
         Field("o_clerk", utf8(), false), Field("o_shippriority", int64(), false),
         Field("o_comment", utf8(), false)},
        {&o_key, &o_custkey, &o_status, &o_total, &o_date, &o_priority, &o_clerk,
         &o_shippriority, &o_comment},
        n_orders));
    w.tables.push_back(MakeTable(
        "lineitem",
        {Field("l_orderkey", int64(), false), Field("l_partkey", int64(), false),
         Field("l_suppkey", int64(), false), Field("l_linenumber", int64(), false),
         Field("l_quantity", float64(), false), Field("l_extendedprice", money, false),
         Field("l_discount", money, false), Field("l_tax", money, false),
         Field("l_returnflag", utf8(), false), Field("l_linestatus", utf8(), false),
         Field("l_shipdate", date32(), false), Field("l_commitdate", date32(), false),
         Field("l_receiptdate", date32(), false), Field("l_shipinstruct", utf8(), false),
         Field("l_shipmode", utf8(), false), Field("l_comment", utf8(), false)},
        {&l_orderkey, &l_partkey, &l_suppkey, &l_linenumber, &l_quantity,
         &l_extendedprice, &l_discount, &l_tax, &l_returnflag, &l_linestatus,
         &l_shipdate, &l_commitdate, &l_receiptdate, &l_shipinstruct, &l_shipmode,
         &l_comment},
        lineitem_rows));
  }
  for (const auto& t : w.tables) {
    for (const auto& b : t.batches) w.rows += b->num_rows();
  }

  w.queries = TpchQueries();
  for (auto& q : w.queries) {
    if (q.id == "q1") {
      q.exact = [q1](const std::vector<RecordBatchPtr>& b) { return CheckQ1(q1, b); };
    } else if (q.id == "q6") {
      q.exact = [q6_revenue](const std::vector<RecordBatchPtr>& b) -> std::string {
        Rows rows = ToRows(b);
        if (rows.size() != 1 || rows[0].size() != 1) return "Q6: expected one value";
        return SameDecimal(rows[0][0], q6_revenue, 4) ? "" : "Q6: revenue differs";
      };
    }
  }
  return w;
}

namespace {

const std::vector<Query>& TpchQueries() {
  static const std::vector<Query> kQueries = {
      {"q1", R"(
SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       avg(l_quantity) AS avg_qty, avg(l_extendedprice) AS avg_price,
       avg(l_discount) AS avg_disc, count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= date '1998-12-01' - interval '90' day
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus)", "0a,1a"},
      {"q2", R"(
WITH min_cost AS (
  SELECT ps_partkey AS mc_partkey, min(ps_supplycost) AS mc
  FROM partsupp, supplier, nation, region
  WHERE s_suppkey = ps_suppkey AND s_nationkey = n_nationkey
    AND n_regionkey = r_regionkey AND r_name = 'EUROPE'
  GROUP BY ps_partkey)
SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone,
       s_comment
FROM part, supplier, partsupp, nation, region, min_cost
WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = 15
  AND p_type LIKE '%BRASS' AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey AND r_name = 'EUROPE'
  AND ps_partkey = mc_partkey AND ps_supplycost = mc
ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
LIMIT 100)", "0d,2a,1a,3a", 100},
      {"q3", R"(
SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey AND o_orderdate < date '1995-03-15'
  AND l_shipdate > date '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10)", "1d,2a", 10},
      {"q4", R"(
SELECT o_orderpriority, count(*) AS order_count
FROM orders
WHERE o_orderdate >= date '1993-07-01' AND o_orderdate < date '1993-10-01'
  AND o_orderkey IN (SELECT l_orderkey FROM lineitem
                     WHERE l_commitdate < l_receiptdate)
GROUP BY o_orderpriority
ORDER BY o_orderpriority)", "0a"},
      {"q5", R"(
SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA' AND o_orderdate >= date '1994-01-01'
  AND o_orderdate < date '1995-01-01'
GROUP BY n_name
ORDER BY revenue DESC)", "1d"},
      {"q6", R"(
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24)"},
      {"q7", R"(
SELECT supp_nation, cust_nation, l_year, sum(volume) AS revenue
FROM (SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
             date_part('year', l_shipdate) AS l_year,
             l_extendedprice * (1 - l_discount) AS volume
      FROM supplier, lineitem, orders, customer, nation n1, nation n2
      WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
        AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
        AND c_nationkey = n2.n_nationkey
        AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
             OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
        AND l_shipdate BETWEEN date '1995-01-01' AND date '1996-12-31')
      shipping
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year)", "0a,1a,2a"},
      {"q8", R"(
SELECT o_year,
       sum(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0 END) / sum(volume)
           AS mkt_share
FROM (SELECT date_part('year', o_orderdate) AS o_year,
             l_extendedprice * (1 - l_discount) AS volume,
             n2.n_name AS nation
      FROM part, supplier, lineitem, orders, customer, nation n1, nation n2,
           region
      WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
        AND l_orderkey = o_orderkey AND o_custkey = c_custkey
        AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey
        AND r_name = 'AMERICA' AND s_nationkey = n2.n_nationkey
        AND o_orderdate BETWEEN date '1995-01-01' AND date '1996-12-31'
        AND p_type = 'ECONOMY ANODIZED STEEL') all_nations
GROUP BY o_year
ORDER BY o_year)", "0a"},
      {"q9", R"(
SELECT nation, o_year, sum(amount) AS sum_profit
FROM (SELECT n_name AS nation, date_part('year', o_orderdate) AS o_year,
             l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity
                 AS amount
      FROM part, supplier, lineitem, partsupp, orders, nation
      WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey
        AND ps_partkey = l_partkey AND p_partkey = l_partkey
        AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
        AND p_name LIKE '%green%') profit
GROUP BY nation, o_year
ORDER BY nation, o_year DESC)", "0a,1d"},
      {"q10", R"(
SELECT c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) AS revenue,
       c_acctbal, n_name, c_address, c_phone, c_comment
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= date '1993-10-01' AND o_orderdate < date '1994-01-01'
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
ORDER BY revenue DESC
LIMIT 20)", "2d", 20},
      {"q11", R"(
SELECT ps_partkey, sum(ps_supplycost * ps_availqty) AS value
FROM partsupp, supplier, nation
WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey
  AND n_name = 'GERMANY'
GROUP BY ps_partkey
HAVING sum(ps_supplycost * ps_availqty) >
       (SELECT sum(ps_supplycost * ps_availqty) * 0.0001
        FROM partsupp, supplier, nation
        WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey
          AND n_name = 'GERMANY')
ORDER BY value DESC)", "1d"},
      {"q12", R"(
SELECT l_shipmode,
       sum(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'
                THEN 1 ELSE 0 END) AS high_line_count,
       sum(CASE WHEN o_orderpriority <> '1-URGENT'
                AND o_orderpriority <> '2-HIGH'
                THEN 1 ELSE 0 END) AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= date '1994-01-01'
  AND l_receiptdate < date '1995-01-01'
GROUP BY l_shipmode
ORDER BY l_shipmode)", "0a"},
      {"q13", R"(
SELECT c_count, count(*) AS custdist
FROM (SELECT c_custkey, count(o_orderkey) AS c_count
      FROM customer LEFT JOIN orders
        ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%requests%'
      GROUP BY c_custkey) c_orders
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC)", "1d,0d"},
      {"q14", R"(
SELECT 100.00 * sum(CASE WHEN p_type LIKE 'PROMO%'
                         THEN l_extendedprice * (1 - l_discount)
                         ELSE 0 END) /
       sum(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey AND l_shipdate >= date '1995-09-01'
  AND l_shipdate < date '1995-10-01')"},
      {"q15", R"(
WITH revenue AS (
  SELECT l_suppkey AS supplier_no,
         sum(l_extendedprice * (1 - l_discount)) AS total_revenue
  FROM lineitem
  WHERE l_shipdate >= date '1996-01-01' AND l_shipdate < date '1996-04-01'
  GROUP BY l_suppkey)
SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
FROM supplier, revenue
WHERE s_suppkey = supplier_no
  AND total_revenue = (SELECT max(total_revenue) FROM revenue)
ORDER BY s_suppkey)", "0a"},
      {"q16", R"(
SELECT p_brand, p_type, p_size, count(DISTINCT ps_suppkey) AS supplier_cnt
FROM partsupp, part
WHERE p_partkey = ps_partkey AND p_brand <> 'Brand#45'
  AND p_type NOT LIKE 'MEDIUM POLISHED%'
  AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9)
  AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier
                         WHERE s_comment LIKE '%Customer%Complaints%')
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size)", "3d,0a,1a,2a"},
      {"q17", R"(
WITH avg_qty AS (
  SELECT l_partkey AS ap, 0.2 * avg(l_quantity) AS limit_qty
  FROM lineitem GROUP BY l_partkey)
SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
FROM lineitem, part, avg_qty
WHERE p_partkey = l_partkey AND p_brand = 'Brand#23'
  AND p_container = 'MED BOX' AND ap = l_partkey
  AND l_quantity < limit_qty)"},
      {"q18", R"(
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
       sum(l_quantity) AS total_qty
FROM customer, orders, lineitem
WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
                     GROUP BY l_orderkey HAVING sum(l_quantity) > 250)
  AND c_custkey = o_custkey AND o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
ORDER BY o_totalprice DESC, o_orderdate
LIMIT 100)", "4d,3a", 100},
      {"q19", R"(
SELECT sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, part
WHERE p_partkey = l_partkey AND l_shipinstruct = 'DELIVER IN PERSON'
  AND ((p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 11
        AND p_size BETWEEN 1 AND 5 AND l_shipmode IN ('AIR', 'REG AIR'))
    OR (p_brand = 'Brand#23' AND l_quantity BETWEEN 10 AND 20
        AND p_size BETWEEN 1 AND 10 AND l_shipmode IN ('AIR', 'REG AIR'))
    OR (p_brand = 'Brand#34' AND l_quantity BETWEEN 20 AND 30
        AND p_size BETWEEN 1 AND 15 AND l_shipmode IN ('AIR', 'REG AIR'))))"},
      {"q20", R"(
WITH excess AS (
  SELECT l_partkey AS ep, l_suppkey AS es, 0.5 * sum(l_quantity) AS half_qty
  FROM lineitem
  WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'
  GROUP BY l_partkey, l_suppkey)
SELECT s_name, s_address
FROM supplier, nation
WHERE s_suppkey IN (SELECT ps_suppkey
                    FROM partsupp, excess
                    WHERE ps_partkey = ep AND ps_suppkey = es
                      AND ps_partkey IN (SELECT p_partkey FROM part
                                         WHERE p_name LIKE 'forest%')
                      AND ps_availqty > half_qty)
  AND s_nationkey = n_nationkey AND n_name = 'CANADA'
ORDER BY s_name)", "0a"},
      {"q21", R"(
WITH l_counts AS (
  SELECT l_orderkey AS lo, count(DISTINCT l_suppkey) AS total_supp,
         count(DISTINCT CASE WHEN l_receiptdate > l_commitdate
                             THEN l_suppkey END) AS late_supp
  FROM lineitem GROUP BY l_orderkey)
SELECT s_name, count(*) AS numwait
FROM supplier, lineitem, orders, nation, l_counts
WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
  AND o_orderstatus = 'F' AND l_receiptdate > l_commitdate
  AND s_nationkey = n_nationkey AND n_name = 'SAUDI ARABIA'
  AND lo = l_orderkey AND total_supp > 1 AND late_supp = 1
GROUP BY s_name
ORDER BY numwait DESC, s_name
LIMIT 100)", "1d,0a", 100},
      {"q22", R"(
WITH avg_bal AS (
  SELECT avg(c_acctbal) AS ab FROM customer
  WHERE c_acctbal > 0.00
    AND substr(c_phone, 1, 2) IN ('13', '31', '23', '29', '30', '18', '17'))
SELECT cntrycode, count(*) AS numcust, sum(acctbal) AS totacctbal
FROM (SELECT substr(c_phone, 1, 2) AS cntrycode, c_acctbal AS acctbal
      FROM customer, avg_bal
      WHERE substr(c_phone, 1, 2) IN ('13', '31', '23', '29', '30', '18', '17')
        AND c_acctbal > ab
        AND c_custkey NOT IN (SELECT o_custkey FROM orders)) custsale
GROUP BY cntrycode
ORDER BY cntrycode)", "0a"},
  };
  return kQueries;
}

}  // namespace

}  // namespace perfbench
