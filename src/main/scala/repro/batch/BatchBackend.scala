package repro.batch

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions._
import repro.core._

/** InferTurbo on a batch-processing system (the paper's MapReduce/Spark
  * backend), expressed with the DataFrame API.
  *
  * The out-edge lists, one row `(src, dsts, ws)` per source, are built once
  * per run. One GNN layer is then one round of two keyed exchanges:
  *   1. scatter: a vertex's state row and its out-edge list row meet in one
  *      group keyed by the sending vertex (a reduce-side join: in the
  *      paper's MR dataflow a vertex's out-edges travel with its record).
  *      Edges cross a round's shuffles only inside their source's list row,
  *      never as rows of their own;
  *   2. map: that group computes the vertex's payload once (`scatter_nbrs`
  *      content) and emits the vertex's own state and one edge message
  *      `apply_edge(payload, w)` per out-edge. With each reference to a
  *      broadcast hub's payload these are the three kinds of [[RoundIn]]
  *      record that meet at the receiver. For a layer whose
  *      `apply_edge` reads the receiver (`LayerSig.readsDst`, GAT), the edge
  *      record carries the raw source payload instead and `apply_edge` runs
  *      in the reduce, where the receiver's state is;
  *   3. reduce: one [[RoundFold]] folds a receiver's records and runs
  *      `apply_node`. With **partial-gather** it is driven by a grouped
  *      aggregate, which Spark runs map-side first (the paper's combiner);
  *      without it, by `groupByKey` + `mapGroups`, so every record crosses
  *      the shuffle exactly once and nothing combines before the receiver
  *      (the paper's no-combiner baseline). A `readsDst` layer always takes
  *      the second driver: the map side has no receiver score to combine
  *      with, and shipping it there would cost one more exchange of every
  *      edge per round;
  *   4. the new node table is persisted to external storage (parquet spill)
  *      before the next round, mirroring the paper's MR dataflow where no
  *      state lives in memory across rounds.
  *
  * Strategies:
  *  - `partialGather`: combiner on/off (exact either way);
  *  - `broadcastHubs`: the paper's broadcast strategy — payloads of the
  *    [[ShadowNodes.hubs]] are shipped once per worker via a Spark broadcast
  *    variable, destroyed when the round is materialized; hub out-edges, split
  *    from the rest once and left out of the out-edge lists, carry only the
  *    source id, and receivers look the payload up (the paper's
  *    identifier/lookup mechanism), so hub messages never cross the shuffle;
  *  - `shadowNodes`: the [[ShadowNodes]] mirror split, applied as
  *    preprocessing and undone on output.
  *
  * Edges whose source or destination has no node row are dropped, with or
  * without strategies. A vertex id that appears twice in the node table
  * fails the round with an `IllegalArgumentException` naming the id.
  */
object BatchBackend {

  final case class BatchOpts(
      partialGather: Boolean = true,
      broadcastHubs: Boolean = false,
      shadowNodes: Boolean = false,
      numWorkers: Int = 64,
      spillDir: Option[String] = None)

  /** Full-graph inference; returns DataFrame(id LONG, h ARRAY&lt;DOUBLE&gt;). */
  def run(spark: SparkSession, nodes: DataFrame, edges: DataFrame, model: GnnModel,
          opts: BatchOpts = BatchOpts()): DataFrame = {
    import spark.implicits._
    lazy val thr = ShadowNodes.threshold(edges.count(), opts.numWorkers)
    val (n0, e0) =
      if (opts.shadowNodes) { val s = ShadowNodes.transform(spark, nodes, edges, thr); (s.nodes, s.edges) }
      else (nodes, edges)
    val hubs: Set[Long] = if (opts.broadcastHubs) ShadowNodes.hubs(e0, thr).keySet else Set.empty

    val e = e0.select("src", "dst", "w")
    // every round reads the hub edges, so with hubs the edge table is cached
    val eCached = if (hubs.isEmpty) None else Some(e.cache())
    val isHub = col("src").isInCollection(hubs)
    val restEdges = eCached.fold(e)(_.filter(!isHub))
    val hubEdges = eCached.map(_.filter(isHub))
    // each non-hub source's out-edges as one row, built once for all rounds
    // and combined map-side; see [[OutEdges]] for why not `collect_list`
    val outLists = restEdges.as[(Long, Long, Double)].rdd
      .map { case (src, dst, w) => (src, (dst, w)) }
      .combineByKey(new OutEdges().add(_), (o: OutEdges, dw: (Long, Double)) => o.add(dw), (a: OutEdges, b: OutEdges) => a.addAll(b))
      .map { case (src, o) => (src, o.dsts.take(o.n), o.ws.take(o.n)) }
      .toDF("src", "dsts", "ws").cache()
    var cur = n0.select(col("id"), col("feat").as("h"))
    model.layers.zipWithIndex.foreach { case (layer, round) =>
      // the hubs' payloads alone (a hub with no node row has none)
      val hubPayloads = hubEdges.map(_ => spark.sparkContext.broadcast(
        cur.filter(col("id").isInCollection(hubs)).as[(Long, Array[Double])]
          .map { case (id, h) => (id, layer.scatterPayload(h)) }.collect().toMap))
      cur = materialize(spark, runRound(spark, cur, outLists, hubEdges, hubPayloads, layer, opts), opts, round)
      hubPayloads.foreach(_.destroy())
    }
    // the last round's table is spilled or checkpointed, so no cache is needed
    outLists.unpersist()
    eCached.foreach(_.unpersist())
    // drop shadow mirrors: only ids present in the original node table
    val result =
      if (opts.shadowNodes) cur.join(nodes.select("id"), Seq("id"))
      else cur
    result.select("id", "h")
  }

  private def runRound(spark: SparkSession, cur: DataFrame, outLists: DataFrame, hubEdges: Option[DataFrame],
                       hubPayloads: Option[Broadcast[Map[Long, Array[Double]]]], layer: GasLayer,
                       opts: BatchOpts): DataFrame = {
    import spark.implicits._
    val readsDst = layer.signature.readsDst
    // a reduce-side join, as in MapReduce: a vertex's state row and its
    // out-edge list row (at most one; none if it sends nothing) meet in one
    // group, so each task sorts once where a sort-merge join sorts both sides
    // and holds two sort pages; a list whose source has no node row meets no
    // state and is dropped
    val rows = cur.select(col("id"), col("h"), lit(null).cast("array<bigint>"), lit(null).cast("array<double>"))
      .union(outLists.select(col("src"), lit(null).cast("array<double>"), col("dsts"), col("ws")))
    val sent = rows.groupBy("id").as[Long, (Long, Array[Double], Array[Long], Array[Double])]
      .flatMapGroups { (id, group) =>
        val (states, lists) = group.toList.partition(_._2 != null)
        states.iterator.flatMap { case (_, h, _, _) =>
          val msgs = lists.iterator.flatMap { case (_, _, dsts, ws) =>
            val p = layer.scatterPayload(h)
            dsts.indices.iterator.map(i =>
              RoundIn(dsts(i), null, if (readsDst) p else layer.applyEdge(p, ws(i)), ws(i), 0L))
          }
          Iterator.single(RoundIn(id, h, null, 0.0, 0L)) ++ msgs
        }
      }
    // broadcast strategy: hub out-edges carry only (src, w) and receivers
    // look the payload up, so hub messages never cross the shuffle
    val hubRefs = hubEdges.map(_.as[(Long, Long, Double)]
      .map { case (src, dst, w) => RoundIn(dst, null, null, w, src) })
    val records = hubRefs.foldLeft(sent)(_ union _)

    val fold = new RoundFold(layer, hubPayloads)
    val reduced =
      if (opts.partialGather && layer.partialGather && !readsDst)
        records.groupBy("key").agg(udaf(fold, Encoders.product[RoundIn])(records.columns.toSeq.map(col): _*).as("h"))
      else
        records.groupByKey(_.key)
          .mapGroups((key, rs) => (key, fold.finish(rs.foldLeft(fold.zero)(fold.reduce))))
          .toDF("key", "h")
    reduced.where(col("h").isNotNull).select(col("key").as("id"), col("h"))
  }

  /** Between rounds the MR backend keeps no state in memory: spill the node
    * table to parquet and read it back (external-storage dataflow). Without
    * a spill dir, localCheckpoint still cuts the lineage so rounds stay
    * independent.
    */
  private def materialize(spark: SparkSession, df: DataFrame, opts: BatchOpts, round: Int): DataFrame =
    opts.spillDir match {
      case Some(dir) =>
        val path = s"$dir/round_$round"
        df.write.mode("overwrite").parquet(path)
        // the known schema spares a job that would infer it from the files
        spark.read.schema(df.schema).parquet(path)
      case None =>
        df.localCheckpoint(true)
    }
}

/** One source's out-edges while the out-edge lists are built: `n` entries
  * of two arrays grown in place, so a long list is never copied per edge.
  * The lists are built with `combineByKey` and not with `collect_list`:
  * Spark's object hash aggregate falls back to sorting past 128 keys per
  * task and then holds two sort pages per task at once (16 MB each with a
  * 3 GB heap on 4 cores). The on-heap allocator keeps freed pages in a pool
  * held by weak references, which G1's young collections do not clear, so
  * that one burst kept twelve pages (192 MB) in the heap for the JVM's life.
  */
final class OutEdges extends Serializable {
  var n = 0
  var dsts = Array.emptyLongArray
  var ws = Array.emptyDoubleArray

  def add(dw: (Long, Double)): OutEdges = {
    if (n == dsts.length) {
      dsts = java.util.Arrays.copyOf(dsts, math.max(4, 2 * n))
      ws = java.util.Arrays.copyOf(ws, math.max(4, 2 * n))
    }
    dsts(n) = dw._1
    ws(n) = dw._2
    n += 1
    this
  }

  def addAll(o: OutEdges): OutEdges = {
    (0 until o.n).foreach(i => add((o.dsts(i), o.ws(i))))
    this
  }
}

/** One record of a round's reduce, keyed by the receiving vertex: its own
  * state (`h`), an edge message (`m`, `w`; the raw source payload for a
  * `readsDst` layer), or a reference to the payload of the broadcast hub
  * `src` over an edge of weight `w`.
  */
final case class RoundIn(key: Long, h: Array[Double], m: Array[Double], w: Double, src: Long)

/** A receiver's partial fold: its state (null until the state record
  * arrives, and `key` with it), the gathered messages and the hub references
  * still to resolve.
  */
final case class RoundBuf(key: Long, h: Array[Double], agg: Agg, hubs: List[(Long, Double)])

/** The reduce of one MR round. `reduce` and `merge` only gather, so Spark may
  * run them map-side (the combiner); `finish` resolves the hub references
  * from the broadcast payloads and runs `apply_node`. A new message is merged
  * on the left, so a [[Unioned]] list grows by prepending.
  *
  * For a `readsDst` layer the gathered messages are raw source payloads,
  * kept as a [[Unioned]] list; `finish` computes the receiver's payload and
  * runs `apply_edge` on each of them and on each hub payload.
  */
final class RoundFold(layer: GasLayer, hubPayloads: Option[Broadcast[Map[Long, Array[Double]]]])
    extends Aggregator[RoundIn, RoundBuf, Array[Double]] {

  private val readsDst = layer.signature.readsDst

  def zero: RoundBuf = RoundBuf(0L, null, EmptyAgg, Nil)

  def reduce(b: RoundBuf, r: RoundIn): RoundBuf =
    if (r.h != null) withState(b, r.key, r.h)
    else if (r.m != null) {
      val in = if (readsDst) Unioned((r.m, r.w) :: Nil) else layer.initAgg(r.m, r.w)
      b.copy(agg = Agg.merge(in, b.agg))
    }
    else b.copy(hubs = (r.src, r.w) :: b.hubs)

  def merge(b1: RoundBuf, b2: RoundBuf): RoundBuf = {
    val b = if (b2.h == null) b1 else withState(b1, b2.key, b2.h)
    b.copy(agg = Agg.merge(b2.agg, b1.agg), hubs = b2.hubs ::: b1.hubs)
  }

  private def withState(b: RoundBuf, key: Long, h: Array[Double]): RoundBuf = {
    require(b.h == null, s"duplicate vertex id $key in the node table")
    b.copy(key = key, h = h)
  }

  /** Null for a key with no state: messages to a missing vertex are dropped. */
  def finish(b: RoundBuf): Array[Double] =
    if (b.h == null) null
    else {
      val dst = if (readsDst) layer.scatterPayload(b.h) else null
      def message(p: Array[Double], w: Double): Agg =
        layer.initAgg(layer.applyEdge(if (readsDst) VecOps.concat(p, dst) else p, w), w)
      val gathered = b.agg match {
        case Unioned(raw) if readsDst => raw.foldLeft(EmptyAgg: Agg) { case (acc, (p, w)) => Agg.merge(message(p, w), acc) }
        case agg                      => agg
      }
      // a hub with no node row has no payload and sends nothing
      val agg = b.hubs.foldLeft(gathered) { case (acc, (src, w)) =>
        hubPayloads.flatMap(_.value.get(src)).fold(acc)(p => Agg.merge(message(p, w), acc))
      }
      layer.applyNode(b.h, agg)
    }

  def bufferEncoder: Encoder[RoundBuf] = Encoders.kryo[RoundBuf]
  def outputEncoder: Encoder[Array[Double]] = ExpressionEncoder[Array[Double]]()
}
