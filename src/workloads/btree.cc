#include "workloads/btree.hh"

#include <optional>

#include "common/logging.hh"
#include "pmlib/objpool.hh"
#include "pmlib/tx.hh"
#include "workloads/kv_actions.hh"

namespace xfd::workloads
{

namespace
{

constexpr unsigned maxKeys = 3; // degree-4 B-tree

struct Node
{
    std::uint64_t n;
    std::uint64_t keys[maxKeys];
    std::uint64_t vals[maxKeys];
    pm::PPtr<Node> child[maxKeys + 1];
};

struct BRoot
{
    pm::PPtr<Node> root;
    std::uint64_t count;
};

/** All B-tree logic, bound to one runtime/pool pair. */
class Impl
{
  public:
    Impl(trace::PmRuntime &rt, pmlib::ObjPool &op, const BugMask &bugs)
        : rt(rt), op(op), bugs(bugs)
    {
    }

    void
    insert(std::uint64_t k, std::uint64_t v)
    {
        BRoot *r = op.root<BRoot>();
        pmlib::Tx tx(op);

        pm::PPtr<Node> root_p = rt.load(r->root);
        if (root_p.null()) {
            pm::PPtr<Node> node_p =
                allocNode(tx, bug("btree.race.first_node_no_init"));
            Node *node = resolve(node_p);
            rt.store(node->keys[0], k);
            rt.store(node->vals[0], v);
            rt.store(node->n, std::uint64_t{1});
            if (!bug("btree.race.rootptr_no_add"))
                tx.add(r->root);
            rt.store(r->root, node_p);
            bumpCount(tx, 1, "btree.race.count_no_add");
            tx.commit();
            return;
        }

        if (keyCount(resolve(root_p)) == maxKeys) {
            // Preemptive root split.
            pm::PPtr<Node> newroot_p =
                allocNode(tx, bug("btree.race.newroot_no_init"));
            Node *newroot = resolve(newroot_p);
            rt.store(newroot->child[0], root_p);
            // The injected new-root bug leaves the node entirely
            // outside the undo log: splitChild must not re-log it.
            splitChild(tx, newroot_p, 0,
                       bug("btree.race.newroot_no_init"));
            if (!bug("btree.race.rootptr_no_add"))
                tx.add(r->root);
            rt.store(r->root, newroot_p);
            root_p = newroot_p;
        }

        pm::PPtr<Node> cur_p = root_p;
        for (;;) {
            Node *cur = resolve(cur_p);
            std::uint64_t n = keyCount(cur);
            unsigned idx = 0;
            bool found = false;
            for (; idx < n; idx++) {
                std::uint64_t ki = rt.load(cur->keys[idx]);
                if (k == ki) {
                    found = true;
                    break;
                }
                if (k < ki)
                    break;
            }
            if (found) {
                // Update in place; no count change.
                if (!bug("btree.race.update_no_add"))
                    tx.add(cur->vals[idx]);
                rt.store(cur->vals[idx], v);
                tx.commit();
                return;
            }
            if (rt.load(cur->child[0]).null()) {
                // Leaf insertion.
                bool write_first = bug("btree.race.write_before_add");
                if (!write_first && !bug("btree.race.leaf_no_add"))
                    tx.addRange(cur, sizeof(Node));
                if (bug("btree.perf.double_add"))
                    tx.addRangeUnchecked(cur, sizeof(Node));
                for (unsigned j = static_cast<unsigned>(n); j > idx;
                     j--) {
                    rt.store(cur->keys[j], rt.load(cur->keys[j - 1]));
                    rt.store(cur->vals[j], rt.load(cur->vals[j - 1]));
                }
                rt.store(cur->keys[idx], k);
                rt.store(cur->vals[idx], v);
                rt.store(cur->n, n + 1);
                if (write_first) {
                    // Snapshotting *after* the update logs the new
                    // value: the write races at failure points before
                    // the snapshot commits.
                    tx.addRange(cur, sizeof(Node));
                }
                bumpCount(tx, 1, "btree.race.count_no_add");
                tx.commit();
                return;
            }
            pm::PPtr<Node> ch_p = rt.load(cur->child[idx]);
            if (keyCount(resolve(ch_p)) == maxKeys) {
                splitChild(tx, cur_p, idx);
                continue; // re-examine this level
            }
            cur_p = ch_p;
        }
    }

    void
    remove(std::uint64_t k)
    {
        BRoot *r = op.root<BRoot>();
        pmlib::Tx tx(op);
        pm::PPtr<Node> cur_p = rt.load(r->root);
        unsigned idx = 0;
        Node *cur = nullptr;
        bool found = false;
        while (!cur_p.null()) {
            cur = resolve(cur_p);
            std::uint64_t n = keyCount(cur);
            found = false;
            for (idx = 0; idx < n; idx++) {
                std::uint64_t ki = rt.load(cur->keys[idx]);
                if (k == ki) {
                    found = true;
                    break;
                }
                if (k < ki)
                    break;
            }
            if (found)
                break;
            cur_p = rt.load(cur->child[idx]);
            if (isLeafPtr(cur_p))
                break;
        }
        if (!found && !cur_p.null()) {
            // Possibly in the final leaf.
            cur = resolve(cur_p);
            std::uint64_t n = keyCount(cur);
            for (idx = 0; idx < n; idx++) {
                if (rt.load(cur->keys[idx]) == k) {
                    found = true;
                    break;
                }
            }
        }
        if (!found) {
            tx.commit();
            return;
        }

        if (rt.load(cur->child[0]).null()) {
            removeAt(tx, cur, idx, "btree.race.remove_no_add");
        } else {
            // Swap with the predecessor, then remove it from its leaf.
            pm::PPtr<Node> p_p = rt.load(cur->child[idx]);
            Node *pl = resolve(p_p);
            while (!rt.load(pl->child[0]).null()) {
                p_p = rt.load(pl->child[keyCount(pl)]);
                pl = resolve(p_p);
            }
            std::uint64_t pn = keyCount(pl);
            if (pn == 0) return removeAboveEmptyLeaf(tx, cur, idx);
            if (!bug("btree.race.remove_no_add")) tx.addRange(cur, sizeof(Node));
            rt.store(cur->keys[idx], rt.load(pl->keys[pn - 1]));
            rt.store(cur->vals[idx], rt.load(pl->vals[pn - 1]));
            tx.addRange(pl, sizeof(Node));
            rt.store(pl->n, pn - 1);
        }
        bumpCount(tx, -1, "btree.race.remove_count_no_add");
        if (bug("btree.perf.extra_flush")) {
            // Redundant: commit below already flushes logged ranges.
            tx.commit();
            rt.persistBarrier(op.root<BRoot>(), sizeof(BRoot));
            return;
        }
        tx.commit();
    }

    std::optional<std::uint64_t>
    get(std::uint64_t k)
    {
        BRoot *r = op.root<BRoot>();
        pm::PPtr<Node> cur_p = rt.load(r->root);
        while (!cur_p.null()) {
            Node *cur = resolve(cur_p);
            std::uint64_t n = keyCount(cur);
            unsigned idx = 0;
            for (; idx < n; idx++) {
                std::uint64_t ki = rt.load(cur->keys[idx]);
                if (k == ki)
                    return rt.load(cur->vals[idx]);
                if (k < ki)
                    break;
            }
            cur_p = rt.load(cur->child[idx]);
        }
        return std::nullopt;
    }

    std::uint64_t count() { return rt.load(op.root<BRoot>()->count); }

    /** Full traversal reading every key/value (recovery warm-up). */
    void
    scan()
    {
        scanNode(rt.load(op.root<BRoot>()->root));
    }

  private:
    bool bug(const char *id) const { return bugs.has(id); }

    Node *resolve(pm::PPtr<Node> p) { return p.get(rt.pool()); }

    bool
    isLeafPtr(pm::PPtr<Node> p)
    {
        return p.null() || rt.load(resolve(p)->child[0]).null();
    }

    void
    scanNode(pm::PPtr<Node> p)
    {
        if (p.null())
            return;
        Node *n = resolve(p);
        std::uint64_t cnt = keyCount(n);
        for (unsigned i = 0; i < cnt; i++) {
            (void)rt.load(n->keys[i]);
            (void)rt.load(n->vals[i]);
        }
        if (!rt.load(n->child[0]).null()) {
            for (unsigned i = 0; i <= cnt; i++)
                scanNode(rt.load(n->child[i]));
        }
    }

    pm::PPtr<Node>
    allocNode(pmlib::Tx &tx, bool skip_init)
    {
        Addr a = op.heap().palloc(sizeof(Node));
        if (!a)
            panic("btree: pool exhausted");
        Node *node = static_cast<Node *>(rt.pool().toHost(a));
        if (!skip_init) {
            // Log the fresh node so commit flushes it (and rollback
            // discards it together with its link).
            tx.addRange(node, sizeof(Node));
        }
        rt.setPm(node, 0, sizeof(Node));
        return pm::PPtr<Node>(a);
    }

    void
    splitChild(pmlib::Tx &tx, pm::PPtr<Node> parent_p, unsigned idx,
               bool skip_parent_add = false)
    {
        Node *parent = resolve(parent_p);
        pm::PPtr<Node> child_p = rt.load(parent->child[idx]);
        Node *c = resolve(child_p);
        pm::PPtr<Node> sib_p =
            allocNode(tx, bug("btree.race.sibling_no_init"));
        Node *sib = resolve(sib_p);

        if (!skip_parent_add && !bug("btree.race.parent_no_add"))
            tx.addRange(parent, sizeof(Node));
        if (!bug("btree.race.child_no_add"))
            tx.addRange(c, sizeof(Node));

        // Upper third moves to the new sibling.
        rt.store(sib->keys[0], rt.load(c->keys[2]));
        rt.store(sib->vals[0], rt.load(c->vals[2]));
        rt.store(sib->child[0], rt.load(c->child[2]));
        rt.store(sib->child[1], rt.load(c->child[3]));
        rt.store(sib->n, std::uint64_t{1});

        // Median rises into the parent.
        std::uint64_t parent_n = keyCount(parent);
        for (unsigned j = static_cast<unsigned>(parent_n); j > idx; j--) {
            rt.store(parent->keys[j], rt.load(parent->keys[j - 1]));
            rt.store(parent->vals[j], rt.load(parent->vals[j - 1]));
            rt.store(parent->child[j + 1], rt.load(parent->child[j]));
        }
        rt.store(parent->keys[idx], rt.load(c->keys[1]));
        rt.store(parent->vals[idx], rt.load(c->vals[1]));
        rt.store(parent->child[idx + 1], sib_p);
        rt.store(parent->n, parent_n + 1);
        rt.store(c->n, std::uint64_t{1});
    }

    void
    removeAt(pmlib::Tx &tx, Node *leaf, unsigned idx, const char *flag)
    {
        if (!bug(flag))
            tx.addRange(leaf, sizeof(Node));
        std::uint64_t n = keyCount(leaf);
        for (unsigned j = idx; j + 1 < n; j++) {
            rt.store(leaf->keys[j], rt.load(leaf->keys[j + 1]));
            rt.store(leaf->vals[j], rt.load(leaf->vals[j + 1]));
        }
        rt.store(leaf->n, n - 1);
    }

    void
    bumpCount(pmlib::Tx &tx, int delta, const char *flag)
    {
        BRoot *r = op.root<BRoot>();
        if (!bug(flag))
            tx.add(r->count);
        rt.store(r->count,
                 rt.load(r->count) + static_cast<std::uint64_t>(delta));
    }

    /**
     * A node's key count, loaded at the caller's line. A count above
     * maxKeys would index past keys[]/child[], so recovery on such an
     * image aborts instead.
     */
    std::uint64_t
    keyCount(const Node *node, trace::SrcLoc loc = trace::here())
    {
        std::uint64_t n = rt.load(node->n, loc);
        if (n > maxKeys)
            throw trace::PostFailureAbort{"btree: corrupt node count", loc};
        return n;
    }

    /**
     * remove() of key @p idx of internal node @p x whose predecessor
     * leaf ran dry (removals never rebalance). The predecessor is then
     * the last key of the internal node q above that leaf: it moves up
     * and q drops it with the leaf. If the leaf is x's own child, x
     * drops the key with it. A node left keyless takes over its one
     * child. Placed last so that no other traced line moves.
     */
    void
    removeAboveEmptyLeaf(pmlib::Tx &tx, Node *x, unsigned idx)
    {
        if (!bug("btree.race.remove_no_add"))
            tx.addRange(x, sizeof(Node));
        Node *q = x;
        Node *leaf = resolve(rt.load(x->child[idx]));
        while (!rt.load(leaf->child[0]).null()) {
            q = leaf;
            leaf = resolve(rt.load(q->child[keyCount(q)]));
        }
        std::uint64_t qn = keyCount(q);
        if (q == x) {
            for (unsigned j = idx; j + 1 < qn; j++) {
                rt.store(x->keys[j], rt.load(x->keys[j + 1]));
                rt.store(x->vals[j], rt.load(x->vals[j + 1]));
            }
            for (unsigned j = idx; j < qn; j++)
                rt.store(x->child[j], rt.load(x->child[j + 1]));
        } else {
            if (qn == 0)
                throw trace::PostFailureAbort{"btree: corrupt node count",
                                              trace::here()};
            tx.addRange(q, sizeof(Node));
            rt.store(x->keys[idx], rt.load(q->keys[qn - 1]));
            rt.store(x->vals[idx], rt.load(q->vals[qn - 1]));
        }
        if (qn > 1) {
            rt.store(q->n, qn - 1);
        } else {
            Node *only = resolve(rt.load(q->child[0]));
            rt.store(q->n, keyCount(only));
            for (unsigned j = 0; j < maxKeys; j++) {
                rt.store(q->keys[j], rt.load(only->keys[j]));
                rt.store(q->vals[j], rt.load(only->vals[j]));
            }
            for (unsigned j = 0; j <= maxKeys; j++)
                rt.store(q->child[j], rt.load(only->child[j]));
        }
        bumpCount(tx, -1, "btree.race.remove_count_no_add");
        tx.commit();
    }

    trace::PmRuntime &rt;
    pmlib::ObjPool &op;
    const BugMask &bugs;
};

void
apply(Impl &impl, const KvAction &a)
{
    switch (a.op) {
      case KvOp::Insert:
        impl.insert(a.key, a.val);
        break;
      case KvOp::Remove:
        impl.remove(a.key);
        break;
      case KvOp::Get:
        (void)impl.get(a.key);
        break;
    }
}

} // namespace

void
BTree::pre(trace::PmRuntime &rt)
{
    if (cfg.roiFromStart)
        rt.roiBegin();
    pmlib::ObjPool op = pmlib::ObjPool::create(rt, "btree", sizeof(BRoot));
    Impl impl(rt, op, cfg.bugs);
    auto actions = kvActions(cfg, cfg.initOps + cfg.testOps);
    for (unsigned i = 0; i < cfg.initOps; i++)
        apply(impl, actions[i]);
    if (!cfg.roiFromStart)
        rt.roiBegin();
    for (unsigned i = cfg.initOps; i < cfg.initOps + cfg.testOps; i++)
        apply(impl, actions[i]);
    rt.roiEnd();
}

void
BTree::post(trace::PmRuntime &rt)
{
    pmlib::ObjPool op = pmlib::ObjPool::openOrCreate(rt, "btree", sizeof(BRoot));
    Impl impl(rt, op, cfg.bugs);
    trace::RoiScope roi(rt);
    // Resumption first consults the element count (the paper's
    // Figure 1 pattern), then continues the operation stream.
    (void)impl.count();
    impl.scan();
    unsigned done = cfg.initOps + cfg.testOps;
    auto actions = kvActions(cfg, done + cfg.postOps);
    for (unsigned i = done; i < done + cfg.postOps; i++)
        apply(impl, actions[i]);
}

std::string
BTree::verify(trace::PmRuntime &rt)
{
    pmlib::ObjPool op = pmlib::ObjPool::open(rt, "btree");
    Impl impl(rt, op, cfg.bugs);
    auto expected = kvExpected(cfg, cfg.initOps + cfg.testOps);
    for (const auto &[k, v] : expected) {
        auto got = impl.get(k);
        if (!got)
            return strprintf("key %llu missing",
                             static_cast<unsigned long long>(k));
        if (*got != v)
            return strprintf("key %llu has wrong value",
                             static_cast<unsigned long long>(k));
    }
    if (impl.count() != expected.size())
        return strprintf("count %llu != expected %zu",
                         static_cast<unsigned long long>(impl.count()),
                         expected.size());
    return "";
}

} // namespace xfd::workloads
