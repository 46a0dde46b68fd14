#include "spans.hpp"

#include <algorithm>
#include <sstream>

namespace perfbench {

std::int64_t self_ns(Interval parent, std::vector<Interval> children) {
    std::sort(children.begin(), children.end(),
              [](const Interval& a, const Interval& b) { return a.start_ns < b.start_ns; });
    std::int64_t covered = 0;
    std::int64_t reach = parent.start_ns;  // covered up to here
    for (const Interval& c : children) {
        const std::int64_t s = std::max(c.start_ns, reach);
        const std::int64_t e = std::min(c.end_ns, parent.end_ns);
        if (e > s) {
            covered += e - s;
            reach = e;
        }
    }
    return (parent.end_ns - parent.start_ns) - covered;
}

std::int64_t SpanLog::add(std::string name, Clock::time_point start, Clock::time_point end,
                          std::int64_t parent, std::int64_t epoch) {
    Span s;
    s.name = std::move(name);
    s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_).count();
    s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_).count();
    s.parent = parent;
    s.epoch = epoch;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::set_parent(std::int64_t child, std::int64_t parent) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(child)).parent = parent;
}

std::vector<Span> SpanLog::spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double> SpanLog::self_ms(const std::string& name) const {
    const std::vector<Span> all = spans();
    std::vector<std::vector<Interval>> children(all.size());
    for (const Span& s : all) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
        }
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i].name != name) continue;
        const std::int64_t self =
            self_ns({all[i].start_ns, all[i].end_ns}, std::move(children[i]));
        out.push_back(static_cast<double>(self) / 1e6);
    }
    return out;
}

std::vector<double> SpanLog::total_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans()) {
        if (s.name == name) out.push_back(s.ms());
    }
    return out;
}

std::string SpanLog::json() const {
    std::ostringstream os;
    os << "[";
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
           << "\",\"start_us\":" << s.start_ns / 1000 << ",\"end_us\":" << s.end_ns / 1000
           << ",\"parent\":" << s.parent << ",\"epoch\":" << s.epoch << "}";
    }
    os << "\n]\n";
    return os.str();
}

}  // namespace perfbench
