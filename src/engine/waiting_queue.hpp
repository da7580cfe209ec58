/**
 * @file
 * The event core's waiting queue, indexed so that an admission pass
 * checks KV fit only on the entries a policy's walk visits, not on
 * every waiting request, and every update costs O(log n).
 *
 * Each queued request is a WaitingEntry with a sequence number: a
 * tail push (an arrival or a retry) takes the next number above every
 * other entry, and a head push (a paged preemption) the next one
 * below, so sequence order is exactly the queue order. Requests are
 * grouped by model (the engine batches one model at a time), and each
 * group keeps its entries in the orders an admission walk can follow:
 *
 *  - arrival order (by sequence number);
 *  - when the scheduler walks it, the prefill order of every priced
 *    topology, keyed (prefill[t] + w x arrivalCycles, seq), where
 *    prefill[t] is the cycles of the request's next prefill on
 *    topology t, which the caller prices and passes to the push (the
 *    queue reads no prefill field of the request);
 *  - the admit footprint: the KV bytes an admission would hold.
 *
 * No key ever changes while a request waits: a preemption re-prices
 * before it re-queues, a fault kill touches only active requests, and
 * the admit footprint depends only on the request's resident tokens.
 * So no entry is ever re-keyed, and a switch to degraded mode just
 * walks the other topology's prefill order. Because KvBlockManager::
 * fits() is monotone in the bytes, the smallest footprint of a group
 * answers "does anything in it fit?" with one check, which rejects a
 * KV-blocked group in O(1).
 *
 * The queue also indexes every queued request that has a deadline
 * (deadlineCycles, seq), so expiring the queue and finding the next
 * deadline take O(log n). Costing stamps deadlines only when faults are
 * on, so a fault-free run's index stays empty.
 *
 * An AdmissionPass carries what one admission decision is made
 * against (the batch's model, the topology, the KV pool) and runs the
 * exact fit check on each entry a policy visits, counting the checks.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "engine/event_core.hpp"
#include "engine/kv_block_manager.hpp"
#include "engine/scheduler.hpp"

namespace mcbp::engine {

/** One waiting request. */
struct WaitingEntry
{
    CostedRequest *request = nullptr;
    /** Queue position: lower is nearer the head. */
    std::int64_t seq = 0;
    /** Block-rounded KV bytes admitting it holds. */
    double admitBytes = 0.0;
    /** Prefill-order key per priced topology (when indexed). */
    std::array<double, kTopologies> prefillKey{};
    /** Index of its model group. */
    std::size_t group = 0;
};

/**
 * One admission decision's view of the engine: the model the running
 * batch accepts (any while it is empty), the topology whose prefill
 * prices apply, and the KV pool's fit check, counted per call.
 */
class AdmissionPass
{
  public:
    /**
     * @p batchModel null admits any model. @p watermark reserves the
     * paged low-watermark headroom. Each fits() call adds one to
     * @p probes.
     */
    AdmissionPass(const KvBlockManager &pool, bool watermark,
                  const std::string *batchModel, std::size_t topology,
                  std::size_t &probes)
        : pool_(&pool), watermark_(watermark), batchModel_(batchModel),
          topology_(topology), probes_(&probes)
    {
    }

    /** May the running batch take a request of @p model? */
    bool accepts(const std::string &model) const
    {
        return batchModel_ == nullptr || model == *batchModel_;
    }

    /** Would admitting @p bytes of KV fit the pool right now? */
    bool fits(double bytes) const
    {
        ++*probes_;
        return pool_->fits(bytes, watermark_);
    }

    std::size_t topology() const { return topology_; }

  private:
    const KvBlockManager *pool_;
    bool watermark_;
    const std::string *batchModel_;
    std::size_t topology_;
    std::size_t *probes_;
};

/** The indexed waiting queue (see the file comment). */
class WaitingQueue
{
  public:
    /**
     * @p prefillAging is the aging weight w of the prefill order, or
     * nullopt to keep no prefill order. @p topologies is how many
     * topologies are priced.
     */
    WaitingQueue(std::optional<double> prefillAging,
                 std::size_t topologies);

    bool empty() const { return size_ == 0; }

    /**
     * Queue @p c at the tail (an arrival or a retry) or at the head (a
     * preemption); admitting it holds @p admitBytes. @p prefill is the
     * cycles of its next prefill on each priced topology, read only
     * when the queue keeps a prefill order.
     */
    void pushBack(CostedRequest &c, double admitBytes,
                  const std::array<double, kTopologies> &prefill);
    void pushFront(CostedRequest &c, double admitBytes,
                   const std::array<double, kTopologies> &prefill);

    /** Remove @p entry (a policy's pick); returns its request. */
    CostedRequest &erase(const WaitingEntry &entry);

    /** Remove every request whose deadline is at or before @p clock
     *  and return them in queue order. */
    std::vector<CostedRequest *> takeExpired(double clock);

    /** Remove every request and return them in queue order. */
    std::vector<CostedRequest *> takeAll();

    /** Earliest queued deadline; infinity when no queued request has
     *  one. */
    double earliestDeadline() const;

    // ---- Walks an admission policy makes ---------------------------

    /** The queue head. The queue must not be empty. */
    const WaitingEntry &head() const;

    /**
     * The first entry, in @p order, that @p pass accepts and that
     * fits: among the accepted model groups, the one earliest in
     * @p order (key, then queue position). Null when none fits. A
     * group whose smallest footprint does not fit costs one check;
     * otherwise the walk checks entries until the first fit.
     */
    const WaitingEntry *firstFit(WaitOrder order,
                                 const AdmissionPass &pass) const;

    /** Does any entry @p pass accepts fit? One check per group. */
    bool anyFits(const AdmissionPass &pass) const;

  private:
    /** One position in an order: (key, seq) sorts it. */
    struct Node
    {
        double key = 0.0;
        std::int64_t seq = 0;
        WaitingEntry *entry = nullptr;

        bool operator<(const Node &o) const
        {
            return key < o.key || (key == o.key && seq < o.seq);
        }
    };
    using Order = std::set<Node>;

    /** The waiting requests of one model. */
    struct Group
    {
        std::string model;
        /** Entries by queue position; owns them. */
        std::map<std::int64_t, WaitingEntry> arrival;
        /** Prefill order per priced topology (when indexed). */
        std::array<Order, kTopologies> prefill;
        /** Entries by admit footprint. */
        Order footprint;
    };

    void push(CostedRequest &c, double admitBytes,
              const std::array<double, kTopologies> &prefill,
              std::int64_t seq);
    const WaitingEntry *groupFirstFit(const Group &g, WaitOrder order,
                                      const AdmissionPass &pass) const;
    /** Sort key of @p e in @p order on @p topology. */
    static Node orderNode(const WaitingEntry &e, WaitOrder order,
                          std::size_t topology);

    std::optional<double> prefillAging_;
    std::size_t topologies_;
    std::int64_t lo_ = 0;
    std::int64_t hi_ = 0;
    std::size_t size_ = 0;
    std::vector<Group> groups_;
    Order deadlines_;
};

} // namespace mcbp::engine
