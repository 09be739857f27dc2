#include <cstdio>
#include <fstream>

#include "bench.hh"

namespace perfbench {

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
    }
}

size_t
Tracer::open(const std::string &name)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
    s.op = op_;
    s.start = now();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tracer::close(size_t id)
{
    spans_[id].end = now();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
Tracer::addFinished(const std::string &name, double start, double end)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
    s.op = op_;
    s.start = start;
    s.end = end;
    spans_.push_back(std::move(s));
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,",
                      s.start * 1e6, (s.end - s.start) * 1e6);
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\","
            << buf << "\"args\":{\"span\":" << i
            << ",\"parent\":" << s.parent << ",\"op\":" << s.op
            << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

double
medianPerOp(const Tracer &tracer, const std::string &name)
{
    std::map<uint64_t, double> perOp;
    for (const Span &s : tracer.spans())
        if (s.op != 0 && s.name == name)
            perOp[s.op] += s.end - s.start;
    std::vector<double> xs;
    for (const auto &[op, seconds] : perOp)
        xs.push_back(seconds);
    return afsb::medianOf(xs);
}

} // namespace perfbench
