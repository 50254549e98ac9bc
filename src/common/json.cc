#include "common/json.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace tango::json {

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendDouble(std::string &out, double v)
{
    char buf[40];
    // 17 significant digits round-trip any IEEE-754 double exactly.
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

void
appendU64(std::string &out, uint64_t v)
{
    out += std::to_string(v);
}

std::string
Reader::string()
{
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
        char c = s_[pos_++];
        if (c == '\\') {
            if (pos_ >= s_.size())
                fail("bad escape");
            char e = s_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                if (pos_ + 4 > s_.size())
                    fail("bad \\u escape");
                const unsigned cp = static_cast<unsigned>(std::strtoul(
                    s_.substr(pos_, 4).c_str(), nullptr, 16));
                pos_ += 4;
                // Tango strings are ASCII; anything else is replaced.
                out += cp < 0x80 ? static_cast<char>(cp) : '?';
                break;
            }
            default: fail("bad escape");
            }
        } else {
            out += c;
        }
    }
    if (pos_ >= s_.size())
        fail("unterminated string");
    pos_++;   // closing quote
    return out;
}

Reader::Value
Reader::object()
{
    Value v;
    v.kind = Value::Kind::Obj;
    expect('{');
    if (peek() == '}') {
        pos_++;
        return v;
    }
    for (;;) {
        std::string key = string();
        expect(':');
        v.obj.emplace_back(std::move(key), value());
        const char n = peek();
        pos_++;
        if (n == '}')
            return v;
        if (n != ',')
            fail("expected , or }");
    }
}

Reader::Value
Reader::array()
{
    Value v;
    v.kind = Value::Kind::Arr;
    expect('[');
    if (peek() == ']') {
        pos_++;
        return v;
    }
    for (;;) {
        v.arr.push_back(value());
        const char n = peek();
        pos_++;
        if (n == ']')
            return v;
        if (n != ',')
            fail("expected , or ]");
    }
}

Reader::Value
Reader::value()
{
    const char c = peek();
    Value v;
    if (c == '{' || c == '[') {
        if (depth_ >= maxDepth)
            fail("nesting too deep");
        // Scoped so a throw from a nested value still unwinds the count
        // (callers may keep reading after catching a parse error).
        struct Nest
        {
            uint32_t &d;
            explicit Nest(uint32_t &depth) : d(depth) { d++; }
            ~Nest() { d--; }
        } nest(depth_);
        return c == '{' ? object() : array();
    }
    if (c == '"') {
        v.kind = Value::Kind::Str;
        v.str = string();
        return v;
    }
    if (c == 't' || c == 'f' || c == 'n') {
        const char *word = c == 't' ? "true" : c == 'f' ? "false" : "null";
        const size_t len = std::strlen(word);
        if (s_.compare(pos_, len, word) != 0)
            fail("bad literal");
        pos_ += len;
        v.kind = c == 'n' ? Value::Kind::Null : Value::Kind::Bool;
        v.b = c == 't';
        return v;
    }
    // Number.
    const char *start = s_.c_str() + pos_;
    char *end = nullptr;
    v.num = std::strtod(start, &end);
    if (end == start)
        fail("bad number");
    pos_ += static_cast<size_t>(end - start);
    v.kind = Value::Kind::Num;
    return v;
}

void
Reader::fail(const char *what)
{
    throw std::runtime_error(std::string("json: ") + what + " at " +
                             std::to_string(pos_));
}

void
appendValue(std::string &out, const Reader::Value &v)
{
    using Kind = Reader::Value::Kind;
    switch (v.kind) {
    case Kind::Null:
        out += "null";
        break;
    case Kind::Bool:
        out += v.b ? "true" : "false";
        break;
    case Kind::Num:
        appendDouble(out, v.num);
        break;
    case Kind::Str:
        appendEscaped(out, v.str);
        break;
    case Kind::Arr: {
        out += '[';
        bool first = true;
        for (const Reader::Value &e : v.arr) {
            if (!first)
                out += ',';
            first = false;
            appendValue(out, e);
        }
        out += ']';
        break;
    }
    case Kind::Obj: {
        out += '{';
        bool first = true;
        for (const auto &[k, e] : v.obj) {
            if (!first)
                out += ',';
            first = false;
            appendEscaped(out, k);
            out += ':';
            appendValue(out, e);
        }
        out += '}';
        break;
    }
    }
}

} // namespace tango::json
