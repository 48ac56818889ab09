package repro.batch

import org.apache.hadoop.fs.Path
import org.apache.parquet.hadoop.ParquetFileReader
import repro.SparkSpec
import repro.GraphFixture
import repro.BackendTestUtil.{assertMatchesLocal, collectH, fixture}
import repro.batch.BatchBackend.BatchOpts
import repro.core.{LocalGraph, LocalInference, Models}
import repro.graphgen.{GraphGen, GraphSpec}
import repro.metrics.SparkCost
import repro.nn.DMat

class BatchBackendSpec extends SparkSpec {

  private lazy val fix = fixture(spark, GraphSpec(nNodes = 200, avgOutDeg = 4, featDim = 6,
    nClasses = 3, homophily = 0.3, seed = 56L, wMin = 0.5, wMax = 1.5))
  private lazy val sage2 = Models.sage(Seq(6, 4, 3))
  private lazy val gat2 = Models.gat(Seq(6, 4, 3), heads = 2)
  private lazy val sage2Wide = Models.sage(Seq(16, 8, 4))

  test("SAGE 2-layer with partial-gather (in-mapper combiner) is exact") {
    assertMatchesLocal(
      BatchBackend.run(spark, fix.nodes, fix.edges, sage2, BatchOpts(partialGather = true)),
      fix.local, fix.reference(sage2), tol = 1e-7)
  }

  test("SAGE with partial-gather disabled (no-combiner groupByKey union) matches the reference") {
    assertMatchesLocal(
      BatchBackend.run(spark, fix.nodes, fix.edges, sage2, BatchOpts(partialGather = false)),
      fix.local, fix.reference(sage2), tol = 1e-7)
  }

  test("GAT 2-layer (non-associative: always unioned) matches the reference") {
    assertMatchesLocal(
      BatchBackend.run(spark, fix.nodes, fix.edges, gat2, BatchOpts()),
      fix.local, fix.reference(gat2), tol = 1e-7)
  }

  test("broadcast strategy is exact (hub payloads via broadcast join)") {
    // small worker count makes the threshold tiny so hubs exist
    assertMatchesLocal(
      BatchBackend.run(spark, fix.nodes, fix.edges, sage2,
        BatchOpts(broadcastHubs = true, numWorkers = 8)),
      fix.local, fix.reference(sage2), tol = 1e-7)
    // every vertex above has out-degree 4, under the threshold of 10, so an
    // out-degree power law is needed for the receivers' payload lookup to run
    val fz = fixture(spark, GraphGen.powerLaw(400, avgDeg = 8, inSkew = false, seed = 67L))
    val opts = BatchOpts(broadcastHubs = true, numWorkers = 8)
    assert(ShadowNodes.hubs(fz.edges, ShadowNodes.threshold(fz.edges.count(), opts.numWorkers)).nonEmpty,
      "power-law fixture has no hubs")
    val sage = Models.sage(Seq(16, 8, 4))
    assertMatchesLocal(BatchBackend.run(spark, fz.nodes, fz.edges, sage, opts),
      fz.local, fz.reference(sage), tol = 1e-7)
    val gat = Models.gat(Seq(16, 8, 4), heads = 2)
    assertMatchesLocal(BatchBackend.run(spark, fz.nodes, fz.edges, gat, opts),
      fz.local, fz.reference(gat), tol = 1e-6)
  }

  test("shadow-nodes strategy is exact on an out-degree power-law graph") {
    val fz = fixture(spark, GraphGen.powerLaw(400, avgDeg = 8, inSkew = false, seed = 67L))
    val m = Models.sage(Seq(16, 8, 4))
    assertMatchesLocal(
      BatchBackend.run(spark, fz.nodes, fz.edges, m,
        BatchOpts(shadowNodes = true, numWorkers = 8)),
      fz.local, fz.reference(m), tol = 1e-7)
  }

  test("shadow-nodes + GAT is exact (mirrors replicate attention inputs)") {
    val fz = fixture(spark, GraphGen.powerLaw(300, avgDeg = 8, inSkew = false, seed = 68L))
    val m = Models.gat(Seq(16, 8, 4), heads = 2)
    assertMatchesLocal(
      BatchBackend.run(spark, fz.nodes, fz.edges, m,
        BatchOpts(shadowNodes = true, numWorkers = 8)),
      fz.local, fz.reference(m), tol = 1e-6)
  }

  test("parquet spill between rounds (external-storage dataflow) is exact") {
    val dir = java.nio.file.Files.createTempDirectory("bb-spill").toString
    assertMatchesLocal(
      BatchBackend.run(spark, fix.nodes, fix.edges, sage2, BatchOpts(spillDir = Some(dir))),
      fix.local, fix.reference(sage2), tol = 1e-7)
    // one spill per layer
    assert(new java.io.File(dir).listFiles().count(_.getName.startsWith("round_")) == 2)
  }

  test("all strategies combined remain exact") {
    val fz = fixture(spark, GraphGen.powerLaw(300, avgDeg = 8, inSkew = false, seed = 69L))
    val m = Models.sage(Seq(16, 8, 4))
    val dir = java.nio.file.Files.createTempDirectory("bb-all").toString
    assertMatchesLocal(
      BatchBackend.run(spark, fz.nodes, fz.edges, m,
        BatchOpts(partialGather = true, broadcastHubs = true, shadowNodes = true,
          numWorkers = 8, spillDir = Some(dir))),
      fz.local, fz.reference(m), tol = 1e-6)
  }

  test("1-layer and 3-layer model depths both work") {
    val m1 = Models.sage(Seq(6, 3))
    val m3 = Models.sage(Seq(6, 5, 4, 3))
    assertMatchesLocal(BatchBackend.run(spark, fix.nodes, fix.edges, m1),
      fix.local, fix.reference(m1), tol = 1e-7)
    assertMatchesLocal(BatchBackend.run(spark, fix.nodes, fix.edges, m3),
      fix.local, fix.reference(m3), tol = 1e-7)
  }

  test("MR and Pregel backends agree with each other") {
    val a = repro.BackendTestUtil.collectH(
      BatchBackend.run(spark, fix.nodes, fix.edges, gat2, BatchOpts()))
    val b = repro.BackendTestUtil.collectH(
      repro.pregel.PregelBackend.run(spark, fix.nodes, fix.edges, gat2))
    a.foreach { case (id, h) =>
      h.zip(b(id)).foreach { case (x, y) => assert(math.abs(x - y) < 1e-7) }
    }
  }

  test("power-law in-degree graph with partial-gather stays exact") {
    val fz = fixture(spark, GraphGen.powerLaw(400, avgDeg = 8, inSkew = true, seed = 70L))
    val m = Models.sage(Seq(16, 8, 4))
    assertMatchesLocal(
      BatchBackend.run(spark, fz.nodes, fz.edges, m, BatchOpts(partialGather = true)),
      fz.local, fz.reference(m), tol = 1e-6)
  }

  test("broadcast strategy drops a hub edge whose source has no node row") {
    import spark.implicits._
    // 40 out-edges put the missing source far above the threshold of 8 workers
    val dangling = (0L until 40L).map(d => (1000000L, d, 1.0)).toDF("src", "dst", "w")
    val edges = fix.edges.select("src", "dst", "w").union(dangling)
    val shuffled = collectH(BatchBackend.run(spark, fix.nodes, edges, sage2, BatchOpts(numWorkers = 8)))
    val hubbed = collectH(BatchBackend.run(spark, fix.nodes, edges, sage2,
      BatchOpts(broadcastHubs = true, numWorkers = 8)))
    assert(hubbed.keySet == shuffled.keySet)
    hubbed.foreach { case (id, h) =>
      h.zip(shuffled(id)).foreach { case (x, y) => assert(math.abs(x - y) < 1e-9) }
    }
  }

  test("without partial-gather each message and state crosses the shuffle once") {
    val n = fix.nodes.count()
    val e = fix.edges.count()
    val (_, cost) = SparkCost.measure(spark, "bb-no-combiner") {
      BatchBackend.run(spark, fix.nodes, fix.edges, sage2, BatchOpts(partialGather = false)).collect()
    }
    // each source's edges sit in one partition of the fixture, so building
    // the out-edge lists writes one record per source; the join, once per
    // run, moves each state and each list once; per round the reduce moves
    // each message and each vertex record once (nothing combined)
    val sources = fix.edges.select("src").distinct().count()
    assert(cost.shuffleWriteRecords == sources + (n + sources) + sage2.layers.size * (e + n))
  }

  test("with broadcast on, hub edges cross the shuffle only in the round-0 join") {
    import org.apache.spark.sql.functions.{col, spark_partition_id, when}
    val fz = fixture(spark, GraphGen.powerLaw(400, avgDeg = 8, inSkew = false, seed = 67L))
    // the run's own hub search, measured apart: the edge count for the
    // threshold and the out-degree aggregate
    val (hubs, search) = SparkCost.measure(spark, "bb-bc-hubs") {
      ShadowNodes.hubs(fz.edges, ShadowNodes.threshold(fz.edges.count(), 8)).keySet
    }
    assert(hubs.nonEmpty, "power-law fixture has no hubs")
    val (_, cost) = SparkCost.measure(spark, "bb-bc-records") {
      BatchBackend.run(spark, fz.nodes, fz.edges, sage2Wide,
        BatchOpts(partialGather = false, broadcastHubs = true, numWorkers = 8)).collect()
    }
    val n = fz.nodes.count()
    val isHub = col("src").isInCollection(hubs)
    val hubEdges = fz.edges.filter(isHub).count()
    assert(hubEdges > 0)
    // building the lists writes one record per key and map task, a hub edge
    // keyed by its receiver and any other edge by its source; the join moves
    // each state and each list once; per round the reduce moves each vertex
    // record and each non-hub edge message once, and no hub edge
    val key = when(isHub, col("dst")).otherwise(col("src"))
    val listRecords = fz.edges.select(spark_partition_id(), key).distinct().count()
    val lists = fz.edges.select(key).distinct().count()
    val rounds = sage2Wide.layers.size
    assert(cost.shuffleWriteRecords - search.shuffleWriteRecords ==
      listRecords + (n + lists) + rounds * (n + fz.edges.count() - hubEdges))
  }

  test("results, and records without partial-gather, do not depend on spark.sql.shuffle.partitions") {
    val fz = fixture(spark, GraphGen.powerLaw(400, avgDeg = 8, inSkew = false, seed = 67L))
    val ref = fz.reference(sage2Wide)
    val conf = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(conf)
    val runs = try for {
      parts <- Seq(1, 3, 64)
      pg <- Seq(true, false)
      bc <- Seq(true, false)
      spill <- Seq(true, false)
    } yield {
      spark.conf.set(conf, parts.toLong)
      val dir = if (spill) Some(java.nio.file.Files.createTempDirectory("bb-parts").toString) else None
      val opts = BatchOpts(partialGather = pg, broadcastHubs = bc, numWorkers = 8, spillDir = dir)
      val (_, cost) = SparkCost.measure(spark, s"bb-parts-$parts") {
        assertMatchesLocal(BatchBackend.run(spark, fz.nodes, fz.edges, sage2Wide, opts), fz.local, ref, tol = 1e-8)
      }
      (parts, opts.copy(spillDir = None), cost.shuffleWriteRecords)
    } finally spark.conf.set(conf, saved)
    runs.filter(!_._2.partialGather).groupBy(_._2).foreach { case (opts, rs) =>
      assert(rs.map(_._3).distinct.size == 1, s"$opts: records per partition count ${rs.map(r => (r._1, r._3))}")
    }
  }

  /** 0 and 2 have self-loops, 1 → 2 is a multi-edge (two copies identical),
    * 3 has no out-edges, 4 no in-edges, 5 neither; one edge has a source and
    * one a destination with no node row. The edge rows are spread
    * round-robin, so one source's edges meet from several partitions.
    */
  private lazy val edgeCases = {
    import spark.implicits._
    val rng = new scala.util.Random(11L)
    val feats = Array.fill(12)(Array.fill(6)(rng.nextGaussian()))
    val valid = Seq((0L, 0L, 1.0), (0L, 1L, 0.7), (1L, 2L, 0.5), (1L, 2L, 1.5), (1L, 2L, 1.5),
      (2L, 3L, 1.2), (2L, 2L, 0.9), (4L, 0L, 1.1), (4L, 3L, 0.8), (4L, 7L, 1.3),
      (6L, 3L, 1.0), (6L, 7L, 1.0), (6L, 8L, 1.0), (6L, 9L, 1.0), (6L, 10L, 1.0), (6L, 11L, 1.0),
      (7L, 6L, 0.6), (8L, 9L, 1.4), (9L, 8L, 0.3), (10L, 11L, 2.0), (11L, 10L, 0.4))
    val dangling = Seq((100L, 2L, 1.0), (4L, 200L, 1.0))
    val nodes = feats.indices.map(i => (i.toLong, feats(i))).toDF("id", "feat")
    val edges = (valid ++ dangling).toDF("src", "dst", "w").repartition(4)
    val local = LocalGraph(feats.length, feats.indices.map(_.toLong).toArray,
      valid.map(_._1.toInt).toArray, valid.map(_._2.toInt).toArray, valid.map(_._3).toArray,
      DMat.fromRows(feats.toIndexedSeq), null, new Array[Int](feats.length))
    assert(ShadowNodes.hubs(edges, ShadowNodes.threshold(edges.count(), 8)).nonEmpty, "no hubs at 8 workers")
    GraphFixture(nodes, edges, local)
  }

  private val edgeCaseOpts = Seq(BatchOpts(partialGather = true), BatchOpts(partialGather = false),
    BatchOpts(broadcastHubs = true, numWorkers = 8))

  test("out-edge lists keep self-loops and multi-edges; vertices without edges and dangling edges are exact") {
    val fx = edgeCases
    Seq(Models.sage(Seq(6, 4, 3)), Models.gat(Seq(6, 4, 3), heads = 2)).foreach { m =>
      val ref = fx.reference(m)
      edgeCaseOpts.foreach(o =>
        assertMatchesLocal(BatchBackend.run(spark, fx.nodes, fx.edges, m, o), fx.local, ref, tol = 1e-8))
    }
  }

  /** Each leaf column of the parquet files in `dir`, by its dotted path, and
    * whether any of its column chunks has a dictionary page.
    */
  private def dictionaryColumns(dir: String): Map[String, Boolean] = {
    import scala.jdk.CollectionConverters._
    val conf = spark.sparkContext.hadoopConfiguration
    val chunks = new java.io.File(dir).listFiles().filter(_.getName.endsWith(".parquet")).toSeq.flatMap { f =>
      val reader = ParquetFileReader.open(conf, new Path(f.getPath))
      try reader.getFooter.getBlocks.asScala.flatMap(_.getColumns.asScala)
        .map(c => c.getPath.toDotString -> c.hasDictionaryPage).toSeq
      finally reader.close()
    }
    chunks.groupMapReduce(_._1)(_._2)(_ || _)
  }

  test("vertex records carry their out-edge lists through spilled rounds; the output is (id, h) only") {
    val fx = edgeCases
    Seq(Models.sage(Seq(6, 5, 4, 3)), Models.gat(Seq(6, 4, 4, 3), heads = 2)).foreach { m =>
      val ref = fx.reference(m)
      edgeCaseOpts.foreach { o =>
        val dir = java.nio.file.Files.createTempDirectory("bb-lists").toString
        val out = BatchBackend.run(spark, fx.nodes, fx.edges, m, o.copy(spillDir = Some(dir)))
        assert(out.columns.toSeq == Seq("id", "h"), s"$o: ${out.columns.mkString(", ")}")
        assertMatchesLocal(out, fx.local, ref, tol = 1e-8)
        // rounds before the last spill the lists with the state, the hub
        // in-edges too (null without hubs); the last does not
        assert(spark.read.parquet(s"$dir/round_1").columns.toSeq == Seq("id", "h", "dsts", "ws", "hubSrcs", "hubWs"))
        assert(spark.read.parquet(s"$dir/round_2").columns.toSeq == Seq("id", "h"))
      }
    }
  }

  test("the spill writes the states without a parquet dictionary and the out-edge lists with one") {
    import spark.implicits._
    // every vertex has the same features and sends to vertices 0-3 alone, so
    // the states after a round take two values and the lists four ids: both
    // columns would be dictionary-encoded if the writer were let
    val nodes = (0L until 200L).map(i => (i, Array.fill(6)(1.0))).toDF("id", "feat")
    val edges = (for (i <- 0L until 200L; k <- 0L until 4L) yield (i, k, 1.0)).toDF("src", "dst", "w")
    val dir = java.nio.file.Files.createTempDirectory("bb-dict").toString
    BatchBackend.run(spark, nodes, edges, sage2, BatchOpts(spillDir = Some(dir))).collect()
    val dict = dictionaryColumns(s"$dir/round_0")
    assert(dict.get("h.list.element").contains(false), dict)
    assert(dict.get("dsts.list.element").contains(true), dict)
  }

  test("a duplicate vertex id fails the reduce with an error naming it") {
    val nodes = fix.nodes.union(fix.nodes.filter("id = 17"))
    Seq(true, false).foreach { pg =>
      val err = intercept[Exception] {
        BatchBackend.run(spark, nodes, fix.edges, sage2, BatchOpts(partialGather = pg)).collect()
      }
      val causes = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null).toSeq
      assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] &&
        c.getMessage.contains("duplicate vertex id 17")), s"partialGather=$pg: $err")
    }
  }

  test("a NaN or infinite edge weight fails the run, naming the edge") {
    import spark.implicits._
    // 6 -> 3 is a hub edge at 8 workers, so the broadcast run meets it among
    // the hub references, the others while building the out-edge lists
    Seq(Double.NaN, Double.PositiveInfinity).foreach { bad =>
      val edges = edgeCases.edges.as[(Long, Long, Double)]
        .map { case (s, d, w) => (s, d, if (s == 6L && d == 3L) bad else w) }.toDF("src", "dst", "w")
      edgeCaseOpts.foreach { o =>
        val err = intercept[Exception](BatchBackend.run(spark, edgeCases.nodes, edges, sage2, o).collect())
        val causes = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null).toSeq
        assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] &&
          c.getMessage.contains(s"non-finite weight $bad on edge 6 -> 3")), s"$o: $err")
      }
    }
  }
}
