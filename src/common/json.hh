/**
 * @file
 * Minimal JSON reading and writing shared by every tango serialization
 * surface: the rt::Engine disk spill (runtime/run_cache), the JobSpec /
 * JobResult wire format (runtime/job) and the tango-serve framed
 * protocol (serve/protocol).
 *
 * The writer is a handful of append helpers over std::string — doubles
 * are written with 17 significant digits so every value round-trips
 * bit-exactly.  The reader is a small recursive-descent parser whose
 * token-level primitives (peek/next/expect/string/value) are public so
 * callers can walk a document incrementally (the run cache uses this to
 * salvage the valid prefix of a damaged file).
 */

#ifndef TANGO_COMMON_JSON_HH
#define TANGO_COMMON_JSON_HH

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tango::json {

/** Append @p s as a quoted, escaped JSON string. */
void appendEscaped(std::string &out, const std::string &s);

/** Append @p v with 17 significant digits (exact double round trip). */
void appendDouble(std::string &out, double v);

/** Append @p v as a decimal integer. */
void appendU64(std::string &out, uint64_t v);

/** Emits `"name":value` sequences inside one JSON object. */
class ObjWriter
{
  public:
    explicit ObjWriter(std::string &out) : out_(out) { out_ += '{'; }
    void close() { out_ += '}'; }

    void key(const char *name)
    {
        if (!first_)
            out_ += ',';
        first_ = false;
        // Escape: keys are usually literals, but metric series ids
        // carry quoted label values (name{k="v"}).
        appendEscaped(out_, name);
        out_ += ':';
    }
    void num(const char *name, double v) { key(name); appendDouble(out_, v); }
    void u64(const char *name, uint64_t v) { key(name); appendU64(out_, v); }
    void boolean(const char *name, bool v)
    {
        key(name);
        out_ += v ? "true" : "false";
    }
    void str(const char *name, const std::string &v)
    {
        key(name);
        appendEscaped(out_, v);
    }

  private:
    std::string &out_;
    bool first_ = true;
};

/** A recursive-descent JSON reader over an in-memory buffer.
 *  Parse errors throw std::runtime_error, and so does nesting deeper than
 *  maxDepth (which would otherwise overflow the stack on hostile input). */
class Reader
{
  public:
    /** Deepest array/object nesting value() accepts.  Tango documents
     *  nest fewer than ten levels. */
    static constexpr uint32_t maxDepth = 256;

    struct Value
    {
        enum class Kind { Null, Bool, Num, Str, Arr, Obj } kind = Kind::Null;
        bool b = false;
        double num = 0.0;
        std::string str;
        std::vector<Value> arr;
        std::vector<std::pair<std::string, Value>> obj;

        const Value *find(const char *key) const
        {
            for (const auto &[k, v] : obj) {
                if (k == key)
                    return &v;
            }
            return nullptr;
        }
        double numOr(const char *key, double dflt = 0.0) const
        {
            const Value *v = find(key);
            return v && v->kind == Kind::Num ? v->num : dflt;
        }
        /** The number at @p key truncated to an integer, or @p dflt when
         *  it is absent, not a number, NaN, negative or >= 2^64. */
        uint64_t u64Or(const char *key, uint64_t dflt = 0) const
        {
            const double v = numOr(key, std::nan(""));
            // Negated test so NaN falls out too; 2^64 is exact in double.
            if (!(v >= 0.0 && v < 18446744073709551616.0))
                return dflt;
            return static_cast<uint64_t>(v);
        }
        bool boolOr(const char *key, bool dflt = false) const
        {
            const Value *v = find(key);
            return v && v->kind == Kind::Bool ? v->b : dflt;
        }
        std::string strOr(const char *key) const
        {
            const Value *v = find(key);
            return v && v->kind == Kind::Str ? v->str : std::string();
        }
    };

    explicit Reader(const std::string &text) : s_(text) {}

    /** Parse the whole buffer as one document (no trailing bytes). */
    Value parse()
    {
        Value v = value();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing characters");
        return v;
    }

    char peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            fail("unexpected end");
        return s_[pos_];
    }
    char next()
    {
        const char c = peek();
        pos_++;
        return c;
    }
    void expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        pos_++;
    }

    std::string string();
    Value value();

  private:
    Value object();
    Value array();
    [[noreturn]] void fail(const char *what);
    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            pos_++;
    }

    const std::string &s_;
    size_t pos_ = 0;
    uint32_t depth_ = 0;   ///< open arrays/objects around pos_
};

/** Serialize a parsed Value back to compact JSON (numbers with 17
 *  significant digits, object fields in parsed order). */
void appendValue(std::string &out, const Reader::Value &v);

} // namespace tango::json

#endif // TANGO_COMMON_JSON_HH
