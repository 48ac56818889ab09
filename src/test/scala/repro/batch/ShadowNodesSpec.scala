package repro.batch

import repro.{Oracle, SparkSpec}
import repro.graphgen.GraphGen

class ShadowNodesSpec extends SparkSpec {

  private type Rec = (Long, Array[Double], Array[Long], Array[Double])

  private lazy val spec = GraphGen.powerLaw(300, avgDeg = 10, inSkew = false, seed = 81L)
  private lazy val nodes = GraphGen.nodes(spark, spec).cache()
  private lazy val edges = GraphGen.edges(spark, spec).cache()

  private def state(v: Long): Array[Double] = Array(v.toDouble, 1.0)

  /** Each vertex's out-edge list, null when it has none, as the round-0
    * join hands it to the split.
    */
  private def listsOf(es: Seq[(Long, Long, Double)], vertices: Seq[Long]): Map[Long, (Array[Long], Array[Double])] = {
    val bySrc = es.groupBy(_._1)
    vertices.map { v =>
      v -> bySrc.get(v).fold[(Array[Long], Array[Double])]((null, null))(l => (l.map(_._2).toArray, l.map(_._3).toArray))
    }.toMap
  }

  private def splitAll(l: ShadowNodes.Layout, lists: Map[Long, (Array[Long], Array[Double])]): Map[Long, Seq[Rec]] =
    lists.map { case (v, (dsts, ws)) => v -> ShadowNodes.split(l, v, state(v), dsts, ws).toSeq }

  /** Without Spark: vertices 0-299, every 25th with 40-99 out-edges and the
    * rest with 0-9, multi-edges, self-loops and repeated weights included.
    * At threshold 30 the first kind are the hubs.
    */
  private val thr = 30L
  private val localEdges: Seq[(Long, Long, Double)] = {
    val rng = new scala.util.Random(81L)
    (0L until 300L).flatMap { v =>
      val d = if (v % 25 == 0) 40 + rng.nextInt(60) else rng.nextInt(10)
      Seq.fill(d)((v, rng.nextInt(300).toLong, rng.nextInt(3) + 0.5))
    }
  }
  private val localLists = listsOf(localEdges, 0L until 300L)
  private val localHubs = localEdges.groupBy(_._1).map { case (v, es) => v -> es.size.toLong }.filter(_._2 > thr)
  private val localLayout = ShadowNodes.layout(localHubs, thr, maxId = 299L)
  private val localSplit = splitAll(localLayout, localLists)

  private def pairs(dsts: Array[Long], ws: Array[Double]): Seq[(Long, Double)] =
    if (dsts == null) Nil else dsts.toSeq.zip(ws.toSeq)

  test("threshold heuristic: lambda * |E| / workers") {
    assert(ShadowNodes.threshold(1000000, 100) == 1000)
    assert(ShadowNodes.threshold(1000000000L, 1000) == 100000) // the paper's setting
    assert(ShadowNodes.threshold(10, 1000) == 1) // floor at 1
  }

  test("no hubs above threshold → graph unchanged") {
    val none = ShadowNodes.layout(Map.empty, thr, maxId = 299L)
    assert(none.mirrors == 0)
    localLists.foreach { case (v, (dsts, ws)) =>
      val h = state(v)
      val recs = ShadowNodes.split(none, v, h, dsts, ws).toSeq
      assert(recs.size == 1 && recs.head._1 == v && (recs.head._2 eq h) && (recs.head._3 eq dsts) && (recs.head._4 eq ws))
    }
  }

  test("a non-hub row with no hub destinations comes back unchanged") {
    val plain = localLists.filter { case (v, (dsts, _)) =>
      !localHubs.contains(v) && (dsts == null || dsts.forall(d => !localHubs.contains(d)))
    }
    assert(plain.size > 10, "fixture has almost no plain rows — weak test")
    plain.foreach { case (v, (dsts, ws)) =>
      val recs = localSplit(v)
      assert(recs.size == 1 && recs.head._1 == v && (recs.head._3 eq dsts) && (recs.head._4 eq ws))
    }
  }

  test("after the split no vertex exceeds the out-degree threshold") {
    assert(localHubs.nonEmpty, "fixture has no hubs — weak test")
    localHubs.foreach { case (hub, deg) =>
      val recs = localSplit(hub)
      assert(recs.size == (deg + thr - 1) / thr)
      // the slice's own edges, not the copies it sends to other hubs'
      // mirrors (the paper's acknowledged overhead), all with ids above 299
      recs.foreach { r =>
        val own = pairs(r._3, r._4).count(_._1 <= localLayout.maxId)
        assert(own <= thr, s"hub $hub: a slice holds $own edges, above $thr")
      }
    }
  }

  test("out-edge multiset is preserved (dst,w pairs per original graph)") {
    localHubs.keys.foreach { hub =>
      // a copy to a hub's mirror has an id above 299, and its copy to the
      // hub's own id stands for the original edge
      val got = localSplit(hub).flatMap(r => pairs(r._3, r._4)).filter(_._1 <= localLayout.maxId)
      val (dsts, ws) = localLists(hub)
      assert(got.sorted == pairs(dsts, ws).sorted, s"hub $hub")
    }
  }

  test("hub in-edges are copied to every mirror") {
    var copied = 0
    localLists.keys.foreach { v =>
      val sent = localSplit(v).flatMap(r => pairs(r._3, r._4))
      localHubs.keys.foreach { hub =>
        val original = localEdges.filter(e => e._1 == v && e._2 == hub).map(_._3).sorted
        localLayout.groups(hub).foreach { g =>
          assert(sent.filter(_._1 == g).map(_._2).sorted == original, s"$v -> hub $hub, group id $g")
        }
        copied += original.size
      }
    }
    assert(copied > 0, "fixture has no edges into hubs — weak test")
  }

  test("an out-edge to an id above the largest vertex id is dropped, mirror ids included") {
    // hub 0 takes mirrors 10 and 11; 5 -> 10 and 5 -> 12 point past node 9
    val l = ShadowNodes.layout(Map(0L -> 5L), thr = 2L, maxId = 9L)
    assert(l.groups(0L).toSeq == Seq(0L, 10L, 11L))
    val recs = ShadowNodes.split(l, 5L, state(5L), Array(10L, 3L, 12L, 0L), Array(1.0, 2.0, 3.0, 4.0)).toSeq
    assert(recs.size == 1 && pairs(recs.head._3, recs.head._4) == Seq(3L -> 2.0, 0L -> 4.0, 10L -> 4.0, 11L -> 4.0))
  }

  test("mirror vertices copy the hub's features (oracle row count check)") {
    import spark.implicits._
    val hubs = ShadowNodes.hubs(edges, thr)
    val ids = nodes.select("id").as[Long].collect().toSeq
    val l = ShadowNodes.layout(hubs, thr, ids.max)
    val recs = splitAll(l, listsOf(edges.select("src", "dst", "w").as[(Long, Long, Double)].collect().toSeq, ids))
    recs.foreach { case (v, rs) =>
      assert(rs.map(_._1) == l.groups.get(v).fold(Seq(v))(_.toSeq), s"vertex $v")
      rs.foreach(r => assert(r._2.toSeq == state(v).toSeq, s"vertex $v: a record lost its state"))
    }
    Oracle.assertEquivalent(
      Seq(recs.values.map(_.size.toLong).sum).toDF("n"),
      "SELECT (SELECT COUNT(*) FROM nodes) + (SELECT CAST(SUM(CEIL(deg / 30.0) - 1) AS BIGINT) " +
        "FROM (SELECT COUNT(*) AS deg FROM edges GROUP BY src HAVING COUNT(*) > 30)) AS n",
      "nodes" -> nodes.select("id"), "edges" -> edges)
  }

  test("edge conservation cross-checked against DuckDB (oracle)") {
    import spark.implicits._
    val hubs = ShadowNodes.hubs(edges, thr)
    assert(hubs.nonEmpty, "fixture has no hubs — weak test")
    val ids = nodes.select("id").as[Long].collect().toSeq
    val l = ShadowNodes.layout(hubs, thr, ids.max)
    val recs = splitAll(l, listsOf(edges.select("src", "dst", "w").as[(Long, Long, Double)].collect().toSeq, ids))
    // per-dst in-degree of non-hub destinations after the split must agree
    // with DuckDB computed over the ORIGINAL edge table
    val inDeg = recs.values.flatten.flatMap(r => Option(r._3).getOrElse(Array.emptyLongArray))
      .filter(d => d <= l.maxId && !hubs.contains(d)).groupBy(identity).map { case (d, n) => (d, n.size.toLong) }
    Oracle.assertEquivalent(
      inDeg.toSeq.toDF("dst", "deg"),
      s"SELECT CAST(dst AS BIGINT) AS dst, COUNT(*) AS deg FROM edges " +
        s"WHERE CAST(dst AS BIGINT) NOT IN (${hubs.keys.mkString(",")}) GROUP BY dst",
      "edges" -> edges)
  }

  test("hub map equals DuckDB's out-degree count above the threshold (oracle)") {
    import spark.implicits._
    val hubs = ShadowNodes.hubs(edges, 30L)
    assert(hubs.nonEmpty, "fixture has no hubs — weak test")
    Oracle.assertEquivalent(
      hubs.toSeq.toDF("src", "deg"),
      "SELECT CAST(src AS BIGINT) AS src, COUNT(*) AS deg FROM edges GROUP BY src HAVING COUNT(*) > 30",
      "edges" -> edges)
  }

  test("mirror ids past Long.MaxValue fail before the split, naming max id and mirror count") {
    // hub 0 has out-degree 9: at threshold 3 it needs two extra mirrors
    val hubs = Map(0L -> 9L)
    val err = intercept[IllegalArgumentException](ShadowNodes.layout(hubs, thr = 3L, maxId = Long.MaxValue - 1))
    assert(err.getMessage.contains(s"max vertex id ${Long.MaxValue - 1}") && err.getMessage.contains("2 mirrors"),
      err.getMessage)
    // one id lower, the two mirrors end exactly at Long.MaxValue
    val l = ShadowNodes.layout(hubs, thr = 3L, maxId = Long.MaxValue - 2)
    assert(l.mirrors == 2)
    assert(l.groups(0L).toSeq == Seq(0L, Long.MaxValue - 1, Long.MaxValue))
  }
}
