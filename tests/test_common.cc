/**
 * @file
 * Unit tests for the common utilities: RNG determinism, StatSet
 * arithmetic, Table formatting and the JSON reader's limits.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace tango {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; i++) {
        const float v = r.uniform();
        EXPECT_GE(v, 0.0f);
        EXPECT_LT(v, 1.0f);
    }
}

TEST(Rng, UniformBounds)
{
    Rng r(9);
    for (int i = 0; i < 1000; i++) {
        const float v = r.uniform(-2.0f, 3.0f);
        EXPECT_GE(v, -2.0f);
        EXPECT_LT(v, 3.0f);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng r(11);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; i++) {
        const double v = r.gaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BelowStaysBelow)
{
    Rng r(5);
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(r.below(17), 17u);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(StatSet, AddAndGet)
{
    StatSet s;
    EXPECT_EQ(s.get("x"), 0.0);
    s.add("x", 2.0);
    s.add("x", 3.0);
    EXPECT_EQ(s.get("x"), 5.0);
    EXPECT_TRUE(s.has("x"));
    EXPECT_FALSE(s.has("y"));
}

TEST(StatSet, MergeAccumulates)
{
    StatSet a, b;
    a.set("x", 1.0);
    a.set("y", 2.0);
    b.set("y", 3.0);
    b.set("z", 4.0);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 1.0);
    EXPECT_EQ(a.get("y"), 5.0);
    EXPECT_EQ(a.get("z"), 4.0);
}

TEST(StatSet, ScaleMultipliesEverything)
{
    StatSet s;
    s.set("a", 2.0);
    s.set("b", 3.0);
    s.scale(2.5);
    EXPECT_EQ(s.get("a"), 5.0);
    EXPECT_EQ(s.get("b"), 7.5);
}

TEST(StatSet, SumPrefix)
{
    StatSet s;
    s.set("op.add", 10.0);
    s.set("op.mul", 5.0);
    s.set("opx", 100.0);
    s.set("evt.l2", 7.0);
    EXPECT_EQ(s.sumPrefix("op."), 15.0);
    EXPECT_EQ(s.sumPrefix("evt."), 7.0);
    EXPECT_EQ(s.sumPrefix("zz."), 0.0);
}

TEST(Table, AlignsAndCounts)
{
    Table t("demo");
    t.header({"a", "bbbb"});
    t.row({"x", "1"});
    t.row({"yy", "22"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("bbbb"), std::string::npos);
    EXPECT_NE(out.find("yy"), std::string::npos);
}

TEST(Table, CsvFormat)
{
    Table t("csv");
    t.header({"a", "b"});
    t.row({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("1,2"), std::string::npos);
    EXPECT_NE(os.str().find("# csv"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::pct(0.5, 1), "50.0%");
}

TEST(Logging, TimestampShape)
{
    // "YYYY-MM-DDTHH:MM:SS.mmmZ" — 24 characters, fixed layout.
    const std::string ts = logTimestampUtc();
    ASSERT_EQ(ts.size(), 24u);
    EXPECT_EQ(ts[4], '-');
    EXPECT_EQ(ts[10], 'T');
    EXPECT_EQ(ts[13], ':');
    EXPECT_EQ(ts[19], '.');
    EXPECT_EQ(ts[23], 'Z');
}

TEST(Logging, PlainLineHasTimestampAndTag)
{
    ::unsetenv("TANGO_LOG_JSON");
    const std::string line = logLine("warn", "disk full");
    ASSERT_GT(line.size(), 26u);
    EXPECT_EQ(line[0], '[');
    EXPECT_EQ(line[25], ']');
    EXPECT_EQ(line.substr(26), " warn: disk full");
}

TEST(Logging, JsonLineMode)
{
    ::setenv("TANGO_LOG_JSON", "1", 1);
    EXPECT_TRUE(logJsonMode());
    const std::string line = logLine("info", "a \"quoted\" \\ message");
    ::unsetenv("TANGO_LOG_JSON");
    EXPECT_FALSE(logJsonMode());

    json::Reader::Value v;
    ASSERT_NO_THROW(v = json::Reader(line).parse());
    ASSERT_EQ(v.kind, json::Reader::Value::Kind::Obj);
    EXPECT_EQ(v.strOr("level"), "info");
    EXPECT_EQ(v.strOr("msg"), "a \"quoted\" \\ message");
    EXPECT_EQ(v.strOr("ts").size(), 24u);
}

TEST(Logging, JsonModeRequiresExactlyOne)
{
    ::setenv("TANGO_LOG_JSON", "0", 1);
    EXPECT_FALSE(logJsonMode());
    ::setenv("TANGO_LOG_JSON", "yes", 1);
    EXPECT_FALSE(logJsonMode());
    ::unsetenv("TANGO_LOG_JSON");
}

TEST(Json, NestingDepthIsCapped)
{
    using json::Reader;
    const auto arrays = [](uint32_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    const auto objects = [](uint32_t depth) {
        std::string doc;
        for (uint32_t i = 0; i < depth; i++)
            doc += "{\"k\":";
        return doc + "0" + std::string(depth, '}');
    };
    EXPECT_NO_THROW(Reader(arrays(Reader::maxDepth)).parse());
    EXPECT_NO_THROW(Reader(objects(Reader::maxDepth)).parse());
    EXPECT_THROW(Reader(arrays(Reader::maxDepth + 1)).parse(),
                 std::runtime_error);
    EXPECT_THROW(Reader(objects(Reader::maxDepth + 1)).parse(),
                 std::runtime_error);
    // A 2 MB run of '[' used to recurse until the stack overflowed.
    try {
        Reader(std::string(2 << 20, '[')).parse();
        ADD_FAILURE() << "deep nesting parsed";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("nesting too deep"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Json, U64OrRejectsOutOfRangeNumbers)
{
    const json::Reader::Value v = json::Reader(
        "{\"neg\":-1,\"negfrac\":-0.5,\"nan\":-nan,\"inf\":1e400,"
        "\"two64\":18446744073709551616,\"top\":18446744073709549568,"
        "\"frac\":42.9,\"zero\":0,\"str\":\"7\"}")
                                      .parse();
    EXPECT_TRUE(std::isnan(v.numOr("nan")));
    EXPECT_EQ(v.u64Or("neg", 5), 5u);
    EXPECT_EQ(v.u64Or("negfrac", 5), 5u);
    EXPECT_EQ(v.u64Or("nan", 5), 5u);
    EXPECT_EQ(v.u64Or("inf", 5), 5u);
    EXPECT_EQ(v.u64Or("two64", 5), 5u);
    EXPECT_EQ(v.u64Or("top", 5), 18446744073709549568ULL);
    EXPECT_EQ(v.u64Or("frac", 5), 42u);
    EXPECT_EQ(v.u64Or("zero", 5), 0u);
    EXPECT_EQ(v.u64Or("str", 5), 5u);
    EXPECT_EQ(v.u64Or("missing", ~0ULL), ~0ULL);
}

} // namespace
} // namespace tango
