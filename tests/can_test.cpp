// CAN overlay tests: geometry invariants, join/leave zone bookkeeping,
// greedy routing, and the item store/query path — all over an in-memory
// loopback transport with per-message delivery delay.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "can/node.hpp"

namespace wav {
namespace {

using can::CanNode;
using can::Item;
using can::Point;
using can::Zone;

TEST(CanGeometry, SplitHalvesVolume) {
  const Zone whole = Zone::whole(2);
  const auto [lo, hi] = whole.split();
  EXPECT_DOUBLE_EQ(lo.volume() + hi.volume(), 1.0);
  EXPECT_DOUBLE_EQ(lo.volume(), 0.5);
  EXPECT_TRUE(lo.is_neighbor(hi));
  const auto merged = lo.merged_with(hi);
  ASSERT_TRUE(merged);
  EXPECT_EQ(*merged, whole);
}

TEST(CanGeometry, ContainsHalfOpen) {
  const auto [lo, hi] = Zone::whole(2).split();
  Point mid{{0.5, 0.3}};
  EXPECT_FALSE(lo.contains(mid));
  EXPECT_TRUE(hi.contains(mid));
}

TEST(CanGeometry, NeighborRequiresSharedFace) {
  // Two diagonal quadrants touch only at a corner: not neighbors.
  const auto [left, right] = Zone::whole(2).split();
  const auto [ll, lu] = left.split();
  const auto [rl, ru] = right.split();
  EXPECT_TRUE(ll.is_neighbor(lu));
  EXPECT_TRUE(ll.is_neighbor(rl));
  EXPECT_FALSE(ll.is_neighbor(ru));  // diagonal
  EXPECT_FALSE(ll.is_neighbor(ll));  // self-overlap, not abutting
}

TEST(CanGeometry, DistanceToZone) {
  const auto [lo, hi] = Zone::whole(1).split();
  EXPECT_DOUBLE_EQ(lo.distance_sq(Point{{0.25}}), 0.0);
  EXPECT_NEAR(lo.distance_sq(Point{{0.75}}), 0.0625, 1e-8);
  // A point exactly on the half-open upper face is outside, so its
  // distance must be strictly positive (routing tie-break invariant).
  EXPECT_GT(lo.distance_sq(Point{{0.5}}), 0.0);
  EXPECT_DOUBLE_EQ(hi.distance_sq(Point{{0.5}}), 0.0);
}

TEST(CanGeometry, PointCodecRoundTrip) {
  Rng rng{7};
  const Point p = Point::random(rng, 3);
  ByteBuffer buf;
  ByteWriter w{buf};
  can::encode_point(w, p);
  can::encode_zone(w, Zone::whole(3));
  ByteReader r{buf};
  EXPECT_EQ(can::parse_point(r).value(), p);
  EXPECT_EQ(can::parse_zone(r).value(), Zone::whole(3));
}

/// In-memory overlay harness: N CAN nodes exchanging messages through the
/// simulator with a fixed delivery delay.
class Overlay {
 public:
  explicit Overlay(std::size_t n, std::uint64_t seed = 42, std::size_t dims = 2)
      : sim_(seed) {
    CanNode::Config cfg;
    cfg.dims = dims;
    for (std::size_t i = 0; i < n; ++i) {
      const net::Endpoint ep{net::Ipv4Address{static_cast<std::uint32_t>(i + 1)}, 9000};
      nodes_.push_back(std::make_unique<CanNode>(
          sim_, i + 1, ep,
          [this](const net::Endpoint& to, net::Chunk msg) {
            sim_.schedule_after(milliseconds(5), [this, to, msg = std::move(msg)] {
              if (auto* node = find(to)) node->on_message(net::Endpoint{}, msg);
            });
          },
          cfg));
    }
    nodes_[0]->bootstrap();
    for (std::size_t i = 1; i < n; ++i) {
      nodes_[i]->join(nodes_[0]->endpoint());
      sim_.run_for(seconds(1));  // let each join settle before the next
    }
    sim_.run_for(seconds(30));  // a few hello rounds
  }

  CanNode* find(const net::Endpoint& ep) {
    for (auto& n : nodes_) {
      if (n->endpoint() == ep) return n.get();
    }
    return nullptr;
  }

  sim::Simulation sim_;
  std::vector<std::unique_ptr<CanNode>> nodes_;
};

TEST(CanOverlay, ZonesPartitionTheSpace) {
  Overlay overlay{16};
  double volume = 0.0;
  for (const auto& n : overlay.nodes_) {
    ASSERT_TRUE(n->joined());
    volume += n->zone().volume();
  }
  EXPECT_NEAR(volume, 1.0, 1e-9);

  // Any random point is owned by exactly one node.
  Rng rng{123};
  for (int i = 0; i < 200; ++i) {
    const Point p = Point::random(rng, 2);
    int owners = 0;
    for (const auto& n : overlay.nodes_) {
      if (n->zone().contains(p)) ++owners;
    }
    EXPECT_EQ(owners, 1) << "point " << p.to_string();
  }
}

TEST(CanOverlay, NeighborTablesAreSymmetricAndComplete) {
  Overlay overlay{12};
  for (const auto& a : overlay.nodes_) {
    for (const auto& b : overlay.nodes_) {
      if (a == b) continue;
      const bool adjacent = a->zone().is_neighbor(b->zone());
      const bool a_knows_b = a->neighbors().contains(b->id());
      EXPECT_EQ(adjacent, a_knows_b)
          << "zones " << a->zone().to_string() << " vs " << b->zone().to_string();
    }
  }
}

TEST(CanOverlay, StoreRoutesToOwnerAndQueryFindsIt) {
  Overlay overlay{8};
  Rng rng{7};
  // Store 40 items from random origin nodes at random points.
  std::vector<Point> points;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const Point p = Point::random(rng, 2);
    points.push_back(p);
    const auto origin = rng.uniform_u64(0, overlay.nodes_.size() - 1);
    overlay.nodes_[origin]->store(p, i, to_bytes("item-" + std::to_string(i)));
  }
  overlay.sim_.run_for(seconds(2));

  // Every item must live exactly at its owner.
  std::size_t total_items = 0;
  for (const auto& n : overlay.nodes_) {
    for (const auto& item : n->items()) {
      EXPECT_TRUE(n->zone().contains(item.point));
      ++total_items;
    }
  }
  EXPECT_EQ(total_items, 40u);

  // A query from an arbitrary node finds the nearest stored item.
  bool answered = false;
  overlay.nodes_[3]->query(points[5], 1, [&](std::vector<Item> items) {
    answered = true;
    ASSERT_FALSE(items.empty());
    EXPECT_EQ(items[0].point, points[5]);
  });
  overlay.sim_.run_for(seconds(5));
  EXPECT_TRUE(answered);
}

TEST(CanOverlay, QueryExpandsToNeighborsWhenShort) {
  Overlay overlay{8};
  Rng rng{99};
  for (std::uint64_t i = 0; i < 30; ++i) {
    const Point p = Point::random(rng, 2);
    overlay.nodes_[0]->store(p, i, to_bytes("host-" + std::to_string(i)));
  }
  overlay.sim_.run_for(seconds(2));

  bool answered = false;
  overlay.nodes_[1]->query(Point{{0.5, 0.5}}, 12, [&](std::vector<Item> items) {
    answered = true;
    // 30 items over ~8 zones: one zone rarely holds 12, so expansion
    // must have pulled results from neighbors.
    EXPECT_GE(items.size(), 6u);
    EXPECT_LE(items.size(), 12u);
  });
  overlay.sim_.run_for(seconds(5));
  EXPECT_TRUE(answered);
}

TEST(CanOverlay, EraseRemovesRecord) {
  Overlay overlay{4};
  const Point p{{0.7, 0.2}};
  overlay.nodes_[2]->store(p, 1, to_bytes("gone"));
  overlay.sim_.run_for(seconds(1));
  overlay.nodes_[1]->erase(p, 1, to_bytes("gone"));
  overlay.sim_.run_for(seconds(1));
  for (const auto& n : overlay.nodes_) EXPECT_TRUE(n->items().empty());
}

/// The records all nodes of the overlay hold, in no particular order.
std::vector<Item> all_records(const Overlay& overlay) {
  std::vector<Item> out;
  for (const auto& n : overlay.nodes_) {
    out.insert(out.end(), n->items().begin(), n->items().end());
  }
  return out;
}

TEST(CanRecords, StoreUnderAHeldKeyReplacesTheRecordAndItsTtl) {
  Overlay overlay{4};
  const Point p{{0.3, 0.6}};
  overlay.nodes_[0]->store(p, 7, to_bytes("old"), seconds(10));
  overlay.sim_.run_for(seconds(6));
  overlay.nodes_[1]->store(p, 7, to_bytes("new"), seconds(10));
  overlay.sim_.run_for(seconds(1));
  const std::vector<Item> held = all_records(overlay);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(bytes_to_string(held[0].payload), "new");

  // The first publisher withdraws what it stored, but that record was
  // replaced: the newer one stays.
  overlay.nodes_[0]->erase(p, 7, to_bytes("old"));
  overlay.sim_.run_for(seconds(1));
  ASSERT_EQ(all_records(overlay).size(), 1u);

  // 12 s after the first store its TTL has passed; the refresh's has
  // not, so a query still finds the record.
  overlay.sim_.run_for(seconds(4));
  std::vector<Item> found;
  overlay.nodes_[2]->query(p, 4, [&](std::vector<Item> items) { found = std::move(items); });
  overlay.sim_.run_for(seconds(1));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(bytes_to_string(found[0].payload), "new");

  // Past the refreshed TTL the owner drops the record.
  overlay.sim_.run_for(seconds(10));
  overlay.nodes_[2]->query(p, 4, [&](std::vector<Item> items) { found = std::move(items); });
  overlay.sim_.run_for(seconds(1));
  EXPECT_TRUE(found.empty());
  EXPECT_TRUE(all_records(overlay).empty());
}

TEST(CanRecords, QueryBreaksDistanceTiesByKey) {
  // Equidistant records come back in key order whatever order they were
  // stored in, and a k-nearest answer never depends on storage order.
  Overlay overlay{1};
  const Point p{{0.4, 0.4}};
  for (const can::RecordKey key : std::initializer_list<can::RecordKey>{5, 3, 9, 1, 7}) {
    overlay.nodes_[0]->store(p, key, to_bytes(std::string("k").append(std::to_string(key))));
  }
  overlay.nodes_[0]->store(Point{{0.4, 0.41}}, 0, to_bytes("farther"));
  std::vector<Item> found;
  overlay.nodes_[0]->query(p, 3, [&](std::vector<Item> items) { found = std::move(items); });
  overlay.sim_.run_for(seconds(1));
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0].key, 1u);
  EXPECT_EQ(found[1].key, 3u);
  EXPECT_EQ(found[2].key, 5u);
}

TEST(CanOverlay, RoutingHopsAreBounded) {
  Overlay overlay{25};
  Rng rng{5};
  // A store whose point lies in the origin's own zone is kept in place:
  // it is never routed, so it is not a routed delivery.
  std::uint64_t local = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto origin = rng.uniform_u64(0, overlay.nodes_.size() - 1);
    const Point p = Point::random(rng, 2);
    if (overlay.nodes_[origin]->zone().contains(p)) ++local;
    overlay.nodes_[origin]->store(p, i, to_bytes("x"));
  }
  overlay.sim_.run_for(seconds(5));

  const obs::MetricsRegistry& reg = overlay.sim_.metrics();
  const std::uint64_t delivered = reg.counter_total("can.routed_delivered");
  EXPECT_EQ(reg.counter_total("can.routed_dead_end"), 0u);
  EXPECT_GE(delivered + local, 100u);
  // CAN routing is O(sqrt(N)) hops for d=2; with N=25 expect ~2.5 average
  // over the routed deliveries.
  const obs::Histogram* hops = reg.find_histogram("can.delivery_hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_EQ(hops->count(), delivered);
  ASSERT_GT(delivered, 0u);
  const double avg_hops = hops->summary().sum() / static_cast<double>(delivered);
  EXPECT_LT(avg_hops, 6.0);
}

TEST(CanOverlay, GracefulLeaveMergesZone) {
  Overlay overlay{2};
  ASSERT_TRUE(overlay.nodes_[1]->joined());
  overlay.nodes_[1]->store(Point{{0.9, 0.9}}, 1, to_bytes("keep-me"));
  overlay.sim_.run_for(seconds(1));

  EXPECT_TRUE(overlay.nodes_[1]->leave());
  overlay.sim_.run_for(seconds(1));

  EXPECT_EQ(overlay.nodes_[0]->zone(), Zone::whole(2));
  ASSERT_EQ(overlay.nodes_[0]->items().size(), 1u);
  EXPECT_EQ(bytes_to_string(overlay.nodes_[0]->items()[0].payload), "keep-me");
  EXPECT_TRUE(overlay.nodes_[0]->neighbors().empty());
}

TEST(CanOverlay, SimultaneousAdjacentCrashesElectOneWinnerPerZone) {
  // Two neighbors die in the same instant. Each orphaned zone must be
  // absorbed by exactly one survivor: the gossiped-neighbor-list
  // election may not produce two claimants (overlap) or zero (orphan),
  // even though each victim's last gossiped list still names the other
  // victim as a live candidate.
  Overlay overlay{16};
  std::size_t a = 0;
  std::size_t b = 0;
  bool found = false;
  for (std::size_t i = 0; i < overlay.nodes_.size() && !found; ++i) {
    for (std::size_t j = i + 1; j < overlay.nodes_.size() && !found; ++j) {
      if (overlay.nodes_[i]->zone().is_neighbor(overlay.nodes_[j]->zone())) {
        a = i;
        b = j;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);

  overlay.nodes_[a]->crash();
  overlay.nodes_[b]->crash();
  // Liveness window is 3 hello intervals (30 s); give the survivors a
  // few extra rounds for second-stage takeovers (a zone whose elected
  // winner was the other victim re-runs once that victim is also
  // declared dead).
  overlay.sim_.run_for(seconds(90));

  // No orphan: the survivors' zones tile the whole space again.
  double volume = 0.0;
  for (std::size_t i = 0; i < overlay.nodes_.size(); ++i) {
    if (i == a || i == b) continue;
    ASSERT_TRUE(overlay.nodes_[i]->joined());
    volume += overlay.nodes_[i]->zone().volume();
  }
  EXPECT_NEAR(volume, 1.0, 1e-9);

  // No double-absorb: every point has exactly one surviving owner.
  Rng rng{321};
  for (int k = 0; k < 300; ++k) {
    const Point p = Point::random(rng, 2);
    int owners = 0;
    for (std::size_t i = 0; i < overlay.nodes_.size(); ++i) {
      if (i == a || i == b) continue;
      if (overlay.nodes_[i]->zone().contains(p)) ++owners;
    }
    EXPECT_EQ(owners, 1) << "point " << p.to_string();
  }

  // Exactly one takeover per orphaned zone across the fleet.
  std::uint64_t takeovers = 0;
  for (std::size_t i = 0; i < overlay.nodes_.size(); ++i) {
    if (i == a || i == b) continue;
    const std::string inst = "can#" + std::to_string(overlay.nodes_[i]->id());
    takeovers += overlay.sim_.metrics().counter("can.zone_takeovers", inst).value();
  }
  EXPECT_EQ(takeovers, 2u);
}

TEST(CanOverlay, FragmentedCrashHealsViaCascadingHandover) {
  // Classic CAN fragmentation: a victim whose zone no survivor can merge
  // into a rectangle (e.g. a half-space bordered only by quadrants).
  // Direct takeover can never fire; the fleet must heal through the
  // handover path — the elected survivor vacates its own zone to an heir
  // (cascading until someone can merge) and adopts the victim's zone.
  std::unique_ptr<Overlay> overlay;
  std::size_t victim = 0;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 50 && !found; ++seed) {
    overlay = std::make_unique<Overlay>(4, seed);
    for (std::size_t i = 0; i < overlay->nodes_.size() && !found; ++i) {
      bool mergeable = false;
      for (std::size_t j = 0; j < overlay->nodes_.size(); ++j) {
        if (i == j) continue;
        if (overlay->nodes_[j]->zone().merged_with(overlay->nodes_[i]->zone())) {
          mergeable = true;
          break;
        }
      }
      if (!mergeable) {
        victim = i;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << "no fragmented topology in 50 seeds";

  overlay->nodes_[victim]->crash();
  // Liveness detection (3 hello intervals) + the handover's extra grace
  // window (3 more) + time for the cascade and table repair to settle.
  overlay->sim_.run_for(seconds(150));

  double volume = 0.0;
  for (std::size_t i = 0; i < overlay->nodes_.size(); ++i) {
    if (i == victim) continue;
    ASSERT_TRUE(overlay->nodes_[i]->joined());
    volume += overlay->nodes_[i]->zone().volume();
  }
  EXPECT_NEAR(volume, 1.0, 1e-9);

  // No overlapping claims either: the survivors tile the space.
  for (std::size_t i = 0; i < overlay->nodes_.size(); ++i) {
    for (std::size_t j = i + 1; j < overlay->nodes_.size(); ++j) {
      if (i == victim || j == victim) continue;
      EXPECT_LT(overlay->nodes_[i]->zone().overlap_volume(
                    overlay->nodes_[j]->zone()),
                1e-12);
    }
  }
}

TEST(CanGeometry, OverlapVolumeAndZoneContainment) {
  const Zone whole = Zone::whole(2);
  const auto [left, right] = whole.split();
  EXPECT_NEAR(left.overlap_volume(right), 0.0, 1e-12);  // abutting, not overlapping
  EXPECT_NEAR(whole.overlap_volume(left), 0.5, 1e-12);
  EXPECT_NEAR(left.overlap_volume(left), 0.5, 1e-12);
  EXPECT_TRUE(whole.contains_zone(left));
  EXPECT_TRUE(left.contains_zone(left));
  EXPECT_FALSE(left.contains_zone(whole));
  EXPECT_FALSE(left.contains_zone(right));
}

TEST(CanOverlay, HigherDimensionalSpace) {
  Overlay overlay{9, 11, 4};
  double volume = 0.0;
  for (const auto& n : overlay.nodes_) {
    ASSERT_TRUE(n->joined());
    volume += n->zone().volume();
  }
  EXPECT_NEAR(volume, 1.0, 1e-9);
}

}  // namespace
}  // namespace wav
