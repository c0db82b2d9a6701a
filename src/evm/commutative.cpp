#include "evm/commutative.hpp"

namespace mtpu::evm {

namespace {

void
materialize(const CommConstraint &c, const U256 &live, U256 &a, U256 &b)
{
    a = c.aChain ? live + c.aOff : c.aOff;
    b = c.bChain ? live + c.bOff : c.bOff;
}

bool
evaluate(CommConstraint::Kind kind, const U256 &a, const U256 &b)
{
    switch (kind) {
      case CommConstraint::Kind::Lt: return a < b;
      case CommConstraint::Kind::Gt: return a > b;
      case CommConstraint::Kind::Slt: return a.slt(b);
      case CommConstraint::Kind::Sgt: return b.slt(a);
      case CommConstraint::Kind::Eq: return a == b;
      case CommConstraint::Kind::IsZero: return a.isZero();
    }
    return false;
}

} // namespace

bool
constraintHolds(const CommConstraint &c, const U256 &live)
{
    U256 a, b;
    materialize(c, live, a, b);
    return evaluate(c.kind, a, b) == c.expected;
}

bool
constraintsHold(const std::vector<CommConstraint> &cs, const U256 &live)
{
    for (const CommConstraint &c : cs)
        if (!constraintHolds(c, live))
            return false;
    return true;
}

bool
constraintsUniform(const std::vector<CommConstraint> &cs, const U256 &lo,
                   const U256 &hi)
{
    for (const CommConstraint &c : cs) {
        // Endpoints must agree with the speculative outcome.
        if (!constraintHolds(c, lo) || !constraintHolds(c, hi))
            return false;

        // Guards that make endpoint evaluation cover the interior:
        // a chain operand's shifted range [lo+off, hi+off] must not
        // wrap 2^256 (monotonicity for unsigned compares), and under
        // signed compares must not cross the sign boundary either.
        bool is_signed = c.kind == CommConstraint::Kind::Slt
                      || c.kind == CommConstraint::Kind::Sgt;
        auto chain_ok = [&](const U256 &off) {
            U256 wlo = lo + off;
            U256 whi = hi + off;
            if (whi < wlo)
                return false; // wrapped
            if (is_signed && wlo.isNegative() != whi.isNegative())
                return false;
            return true;
        };
        if (c.aChain && !chain_ok(c.aOff))
            return false;
        if (c.bChain && !chain_ok(c.bOff))
            return false;

        // Eq expected-false with exactly one chain side: the constant
        // could sit strictly inside the shifted range even though both
        // endpoints miss it. (IsZero needs no interior check: with no
        // wrap, 0 is inside [wlo, whi] only when wlo == 0, which the
        // lo endpoint already rejects. Both-chain Eq has a constant
        // operand difference, so endpoints decide it.)
        if (c.kind == CommConstraint::Kind::Eq && !c.expected
            && c.aChain != c.bChain) {
            const U256 &off = c.aChain ? c.aOff : c.bOff;
            const U256 &k = c.aChain ? c.bOff : c.aOff;
            U256 wlo = lo + off;
            U256 whi = hi + off;
            if (wlo < k && k < whi)
                return false;
        }
    }
    return true;
}

int
CommTracker::lookupOrCreate(const Address &addr, const U256 &slot)
{
    StateKey key{addr, slot};
    auto it = index_.find(key);
    if (it != index_.end())
        return it->second;
    int idx = int(records_.size());
    Record rec;
    rec.addr = addr;
    rec.slot = slot;
    records_.push_back(std::move(rec));
    index_.emplace(key, idx);
    return idx;
}

int
CommTracker::load(const Address &addr, const U256 &slot, const U256 &value)
{
    StateKey key{addr, slot};
    auto it = index_.find(key);
    if (it == index_.end()) {
        int idx = lookupOrCreate(addr, slot);
        records_[std::size_t(idx)].observedFirst = value;
        return idx;
    }
    Record &rec = records_[std::size_t(it->second)];
    if (rec.poisoned)
        return -1;
    // A re-load must see exactly the chain value; anything else means
    // the slot changed through a path this tracker did not model.
    if (value != rec.observedFirst + rec.curOff) {
        rec.poisoned = true;
        return -1;
    }
    return it->second;
}

void
CommTracker::store(const Address &addr, const U256 &slot, const U256 &cur,
                   int valRecord, const U256 &valOff)
{
    int idx = lookupOrCreate(addr, slot);
    Record &rec = records_[std::size_t(idx)];
    if (valRecord != idx) {
        // Exact overwrite, or a value derived from some *other* slot's
        // chain: the target slot is not commutative, and a foreign
        // source chain leaks into observable state, so poison it too.
        rec.poisoned = true;
        poison(valRecord);
        return;
    }
    if (rec.poisoned)
        return;
    if (cur != rec.observedFirst + rec.curOff) {
        rec.poisoned = true;
        return;
    }
    // Pin the SSTORE gas class: cost depends on cur.isZero() (and on
    // cur == val, but both sides shift by the same live delta, so that
    // comparison is value-independent along the chain).
    CommConstraint zc;
    zc.kind = CommConstraint::Kind::IsZero;
    zc.aChain = true;
    zc.aOff = rec.curOff;
    zc.expected = cur.isZero();
    rec.constraints.push_back(zc);
    rec.curOff = valOff;
    rec.hasStore = true;
}

void
CommTracker::poison(int idx)
{
    if (Record *rec = at(idx))
        rec->poisoned = true;
}

void
CommTracker::poisonSlot(const Address &addr, const U256 &slot)
{
    records_[std::size_t(lookupOrCreate(addr, slot))].poisoned = true;
}

void
CommTracker::addConstraint(int idx, const CommConstraint &c)
{
    if (Record *rec = at(idx)) {
        if (!rec->poisoned)
            rec->constraints.push_back(c);
    }
}

const CommTracker::Record *
CommTracker::find(const Address &addr, const U256 &slot) const
{
    auto it = index_.find(StateKey{addr, slot});
    return it == index_.end() ? nullptr
                              : &records_[std::size_t(it->second)];
}

bool
conflictsExactly(const AccessSet &a, const AccessSet &b,
                 const std::set<StateKey> &unforgivable)
{
    auto forgiven = [&](const StateKey &k) {
        return a.commutative.count(k) != 0 && b.commutative.count(k) != 0
            && unforgivable.count(k) == 0;
    };
    auto intersects_exactly = [&](const std::set<StateKey> &x,
                                  const std::set<StateKey> &y) {
        auto ix = x.begin();
        auto iy = y.begin();
        while (ix != x.end() && iy != y.end()) {
            if (*ix < *iy) {
                ++ix;
            } else if (*iy < *ix) {
                ++iy;
            } else {
                if (!forgiven(*ix))
                    return true;
                ++ix;
                ++iy;
            }
        }
        return false;
    };
    return intersects_exactly(a.writes, b.writes)
        || intersects_exactly(a.writes, b.reads)
        || intersects_exactly(a.reads, b.writes);
}

} // namespace mtpu::evm
