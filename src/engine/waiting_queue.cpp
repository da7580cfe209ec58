#include "engine/waiting_queue.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"

namespace mcbp::engine {

namespace {

/** Erase exactly the node @p n from @p order (it must be there). */
template <typename Order, typename Node>
void
eraseNode(Order &order, const Node &n)
{
    panicIf(order.erase(n) != 1, "waiting-queue index out of sync");
}

} // namespace

WaitingQueue::WaitingQueue(std::optional<double> prefillAging,
                           std::size_t topologies)
    : prefillAging_(prefillAging), topologies_(topologies)
{
    panicIf(topologies_ == 0 || topologies_ > kTopologies,
            "waiting queue needs 1..kTopologies priced topologies");
}

void
WaitingQueue::pushBack(CostedRequest &c, double admitBytes,
                       const std::array<double, kTopologies> &prefill)
{
    push(c, admitBytes, prefill, ++hi_);
}

void
WaitingQueue::pushFront(CostedRequest &c, double admitBytes,
                        const std::array<double, kTopologies> &prefill)
{
    push(c, admitBytes, prefill, --lo_);
}

void
WaitingQueue::push(CostedRequest &c, double admitBytes,
                   const std::array<double, kTopologies> &prefill,
                   std::int64_t seq)
{
    std::size_t g = 0;
    while (g < groups_.size() && groups_[g].model != c.req->model)
        ++g;
    if (g == groups_.size())
        groups_.push_back(Group{c.req->model, {}, {}, {}});
    Group &group = groups_[g];

    WaitingEntry &e = group.arrival[seq];
    e.request = &c;
    e.seq = seq;
    e.admitBytes = admitBytes;
    e.group = g;
    if (prefillAging_) {
        // The clock-free form of the aged key prefill - w x (clock -
        // arrival): the w x clock term is common to every entry.
        for (std::size_t t = 0; t < topologies_; ++t) {
            e.prefillKey[t] =
                prefill[t] + *prefillAging_ * c.arrivalCycles;
            group.prefill[t].insert({e.prefillKey[t], seq, &e});
        }
    }
    group.footprint.insert({admitBytes, seq, &e});
    if (c.deadlineCycles > 0.0)
        deadlines_.insert({c.deadlineCycles, seq, &e});
    ++size_;
}

CostedRequest &
WaitingQueue::erase(const WaitingEntry &entry)
{
    Group &group = groups_[entry.group];
    CostedRequest &c = *entry.request;
    const std::int64_t seq = entry.seq;
    if (prefillAging_)
        for (std::size_t t = 0; t < topologies_; ++t)
            eraseNode(group.prefill[t], Node{entry.prefillKey[t], seq});
    eraseNode(group.footprint, Node{entry.admitBytes, seq});
    if (c.deadlineCycles > 0.0)
        eraseNode(deadlines_, Node{c.deadlineCycles, seq});
    eraseNode(group.arrival, seq); // Destroys the entry: last.
    --size_;
    return c;
}

std::vector<CostedRequest *>
WaitingQueue::takeExpired(double clock)
{
    std::vector<const WaitingEntry *> expired;
    for (auto it = deadlines_.begin();
         it != deadlines_.end() && it->key <= clock; ++it)
        expired.push_back(it->entry);
    std::sort(expired.begin(), expired.end(),
              [](const WaitingEntry *a, const WaitingEntry *b) {
                  return a->seq < b->seq;
              });
    std::vector<CostedRequest *> out;
    out.reserve(expired.size());
    for (const WaitingEntry *e : expired)
        out.push_back(&erase(*e));
    return out;
}

std::vector<CostedRequest *>
WaitingQueue::takeAll()
{
    std::vector<const WaitingEntry *> all;
    all.reserve(size_);
    for (const Group &g : groups_)
        for (const auto &[seq, e] : g.arrival)
            all.push_back(&e);
    std::sort(all.begin(), all.end(),
              [](const WaitingEntry *a, const WaitingEntry *b) {
                  return a->seq < b->seq;
              });
    std::vector<CostedRequest *> out;
    out.reserve(all.size());
    for (const WaitingEntry *e : all)
        out.push_back(e->request);
    for (Group &g : groups_) {
        g.arrival.clear();
        for (Order &o : g.prefill)
            o.clear();
        g.footprint.clear();
    }
    deadlines_.clear();
    size_ = 0;
    return out;
}

double
WaitingQueue::earliestDeadline() const
{
    return deadlines_.empty() ? std::numeric_limits<double>::infinity()
                              : deadlines_.begin()->key;
}

const WaitingEntry &
WaitingQueue::head() const
{
    const WaitingEntry *best = nullptr;
    for (const Group &g : groups_)
        if (!g.arrival.empty() &&
            (best == nullptr || g.arrival.begin()->first < best->seq))
            best = &g.arrival.begin()->second;
    panicIf(best == nullptr, "head of an empty waiting queue");
    return *best;
}

WaitingQueue::Node
WaitingQueue::orderNode(const WaitingEntry &e, WaitOrder order,
                        std::size_t topology)
{
    return {order == WaitOrder::Prefill ? e.prefillKey[topology] : 0.0,
            e.seq};
}

const WaitingEntry *
WaitingQueue::groupFirstFit(const Group &g, WaitOrder order,
                            const AdmissionPass &pass) const
{
    if (g.footprint.empty() || !pass.fits(g.footprint.begin()->key))
        return nullptr;
    // The smallest footprint fits, so the walk ends at a fit.
    if (order == WaitOrder::Arrival) {
        for (const auto &[seq, e] : g.arrival)
            if (pass.fits(e.admitBytes))
                return &e;
    } else {
        panicIf(!prefillAging_, "waiting queue keeps no prefill order");
        for (const Node &n : g.prefill[pass.topology()])
            if (pass.fits(n.entry->admitBytes))
                return n.entry;
    }
    panic("waiting queue: the smallest footprint fits but no entry does");
}

const WaitingEntry *
WaitingQueue::firstFit(WaitOrder order, const AdmissionPass &pass) const
{
    const WaitingEntry *best = nullptr;
    for (const Group &g : groups_) {
        if (!pass.accepts(g.model))
            continue;
        const WaitingEntry *e = groupFirstFit(g, order, pass);
        if (e != nullptr &&
            (best == nullptr ||
             orderNode(*e, order, pass.topology()) <
                 orderNode(*best, order, pass.topology())))
            best = e;
    }
    return best;
}

bool
WaitingQueue::anyFits(const AdmissionPass &pass) const
{
    for (const Group &g : groups_)
        if (pass.accepts(g.model) && !g.footprint.empty() &&
            pass.fits(g.footprint.begin()->key))
            return true;
    return false;
}

} // namespace mcbp::engine
