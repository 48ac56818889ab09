package repro.batch

import scala.collection.mutable
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** InferTurbo on a batch-processing system (the paper's MapReduce/Spark
  * backend), expressed with the DataFrame API.
  *
  * A round reads and writes vertex records `(id, h, dsts, ws)`: a vertex's
  * state together with its out-edge list, the classic MapReduce graph
  * pattern in which the graph structure is passed along from mapper to
  * reducer on every iteration. One GNN layer is one round:
  *   1. join (round 0 only): the out-edge lists, one row `(src, dsts, ws)`
  *      per source built with a map-side `combineByKey`, meet the node
  *      table in one group per vertex (a reduce-side join). This is the
  *      only exchange in which edges travel apart from their source's
  *      record, and it runs once per run;
  *   2. map (`scatter_nbrs`): one `mapPartitions` over the vertex records
  *      computes each vertex's payload once and emits the vertex's own
  *      record, list included, and one edge message `apply_edge(payload, w)`
  *      per out-edge. With each reference to a broadcast hub's payload these
  *      are the three kinds of [[RoundIn]] record that meet at the receiver.
  *      For a layer whose `apply_edge` reads the receiver
  *      (`LayerSig.readsDst`, GAT), the edge record carries the raw source
  *      payload instead and `apply_edge` runs in the reduce, where the
  *      receiver's state is;
  *   3. reduce: one [[RoundFold]] folds a receiver's records, runs
  *      `apply_node` and hands the list on with the new state, driven by
  *      `groupByKey` + `flatMapGroups` for every layer. With
  *      **partial-gather** each map task first folds its own records per
  *      receiver in a hash map ([[RoundFold.combine]], in-mapper combining,
  *      the paper's combiner) and emits one record per receiver it saw: the
  *      state and list, if the task holds them, with the combined aggregate
  *      encoded as one message. Without it every record crosses the shuffle
  *      exactly once and nothing combines before the receiver (the paper's
  *      no-combiner baseline). A `readsDst` layer never combines: the map
  *      side has no receiver score to combine with, and shipping it there
  *      would cost one more exchange of every edge per round;
  *   4. the new vertex records are persisted to external storage (parquet
  *      spill) before the next round, mirroring the paper's MR dataflow
  *      where no state lives in memory across rounds. The last round's
  *      records drop their lists, so the last spill and the output hold
  *      only `(id, h)`.
  *
  * Strategies:
  *  - `partialGather`: combiner on/off (exact either way);
  *  - `broadcastHubs`: the paper's broadcast strategy — payloads of the
  *    [[ShadowNodes.hubs]] are shipped once per worker via a Spark broadcast
  *    variable, destroyed when the round is materialized; hub out-edges, split
  *    from the rest once and left out of the out-edge lists, carry only the
  *    source id, and receivers look the payload up (the paper's
  *    identifier/lookup mechanism; with partial-gather the map task of the
  *    hub edges does, as it combines), so hub payloads never cross the
  *    shuffle;
  *  - `shadowNodes`: the [[ShadowNodes]] mirror split, applied as
  *    preprocessing and undone on output.
  *
  * Edges whose source or destination has no node row are dropped, with or
  * without strategies. A vertex id that appears twice in the node table
  * fails the round with an `IllegalArgumentException` naming the id, and an
  * edge weight that is NaN or infinite fails the run with one naming the
  * edge, raised while the out-edge lists or the hub references are built.
  */
object BatchBackend {

  final case class BatchOpts(
      partialGather: Boolean = true,
      broadcastHubs: Boolean = false,
      shadowNodes: Boolean = false,
      numWorkers: Int = 64,
      spillDir: Option[String] = None)

  /** A vertex record: state `h` and out-edge list (`dsts`, `ws`; both null
    * for a vertex without non-hub out-edges).
    */
  private type VertexRow = (Long, Array[Double], Array[Long], Array[Double])

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
    // each non-hub source's out-edges as one row, combined map-side; see
    // [[OutEdges]] for why not `collect_list`
    val outLists = restEdges.as[(Long, Long, Double)].rdd
      .map { case (src, dst, w) =>
        require(java.lang.Double.isFinite(w), s"non-finite weight $w on edge $src -> $dst")
        (src, (dst, w))
      }
      .combineByKey(new OutEdges().add(_), (o: OutEdges, dw: (Long, Double)) => o.add(dw), (a: OutEdges, b: OutEdges) => a.addAll(b))
      .map { case (src, o) => (src, o.dsts.take(o.n), o.ws.take(o.n)) }
      .toDF("src", "dsts", "ws")
    var cur = n0.select(col("id"), col("feat").as("h"))
    model.layers.zipWithIndex.foreach { case (layer, round) =>
      // the hubs' payloads alone (a hub with no node row has none), read
      // from the node table in round 0 so the join is not run twice
      val hubPayloads = hubEdges.map(_ => spark.sparkContext.broadcast(
        cur.filter(col("id").isInCollection(hubs)).select("id", "h").as[(Long, Array[Double])]
          .map { case (id, h) => (id, layer.scatterPayload(h)) }.collect().toMap))
      val rows = if (round == 0) withOutLists(spark, cur, outLists) else cur.as[VertexRow]
      val last = round == model.layers.size - 1
      cur = materialize(spark, runRound(spark, rows, hubEdges, hubPayloads, layer, last, opts), opts, round)
      hubPayloads.foreach(_.destroy())
    }
    eCached.foreach(_.unpersist())
    // drop shadow mirrors: only ids present in the original node table
    val result =
      if (opts.shadowNodes) cur.join(nodes.select("id"), Seq("id"))
      else cur
    result.select("id", "h")
  }

  /** The vertex records of round 0: a reduce-side join, as in MapReduce,
    * where a vertex's state row and its out-edge list row (at most one;
    * none if it sends nothing) meet in one group, so each task sorts once
    * where a sort-merge join sorts both sides and holds two sort pages. A
    * list whose source has no node row meets no state and is dropped.
    */
  private def withOutLists(spark: SparkSession, states: DataFrame, outLists: DataFrame): Dataset[VertexRow] = {
    import spark.implicits._
    states.select(col("id"), col("h"), lit(null).cast("array<bigint>"), lit(null).cast("array<double>"))
      .union(outLists.select(col("src"), lit(null).cast("array<double>"), col("dsts"), col("ws")))
      .groupBy("id").as[Long, VertexRow]
      .flatMapGroups { (_, group) =>
        val (stateRows, listRows) = group.toList.partition(_._2 != null)
        val list = listRows.headOption
        stateRows.iterator.map { case (id, h, _, _) => (id, h, list.map(_._3).orNull, list.map(_._4).orNull) }
      }
  }

  private def runRound(spark: SparkSession, rows: Dataset[VertexRow], hubEdges: Option[DataFrame],
                       hubPayloads: Option[Broadcast[Map[Long, Array[Double]]]], layer: GasLayer,
                       last: Boolean, opts: BatchOpts): DataFrame = {
    import spark.implicits._
    val readsDst = layer.signature.readsDst
    val fold = new RoundFold(layer, hubPayloads)
    // partial-gather: each map task folds its records per receiver first
    val combine: Iterator[RoundIn] => Iterator[RoundIn] =
      if (opts.partialGather && layer.partialGather && !readsDst) fold.combine(_) else identity
    // each vertex computes its payload once and sends it along its list;
    // its own record carries the list on to the reduce, except in the
    // last round
    val sent = rows.mapPartitions(vs => combine(vs.flatMap { case (id, h, dsts, ws) =>
      val own = if (last) RoundIn(id, h, null, 0.0, 0L, null, null) else RoundIn(id, h, null, 0.0, 0L, dsts, ws)
      if (dsts == null) Iterator.single(own)
      else {
        val p = layer.scatterPayload(h)
        Iterator.single(own) ++ dsts.indices.iterator.map(i =>
          RoundIn(dsts(i), null, if (readsDst) p else layer.applyEdge(p, ws(i)), ws(i), 0L, null, null))
      }
    }))
    // broadcast strategy: hub out-edges carry only (src, w) and receivers
    // look the payload up (the combiner does, when there is one), so hub
    // payloads never cross the shuffle
    val hubRefs = hubEdges.map(_.as[(Long, Long, Double)].mapPartitions(es => combine(es.map { case (src, dst, w) =>
      require(java.lang.Double.isFinite(w), s"non-finite weight $w on edge $src -> $dst")
      RoundIn(dst, null, null, w, src, null, null)
    })))
    val out = hubRefs.foldLeft(sent)(_ union _)
      .groupByKey(_.key)
      .flatMapGroups((_, rs) => fold.finish(rs.foldLeft(fold.zero)(fold.reduce)))
      .toDF()
    if (last) out.select("id", "h") else out
  }

  /** Between rounds the MR backend keeps no state in memory: spill the
    * vertex records to parquet and read them back (external-storage
    * dataflow). Without a spill dir, localCheckpoint still cuts the lineage
    * so rounds stay independent.
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
  * state (`h`, with its out-edge list `dsts`, `ws` to hand on), an edge
  * message (`m`, `w`; the raw source payload for a `readsDst` layer), or a
  * reference to the payload of the broadcast hub `src` over an edge of
  * weight `w`. A record of [[RoundFold.combine]] may carry a state and a
  * message, the receiver's combined aggregate, at once.
  */
final case class RoundIn(key: Long, h: Array[Double], m: Array[Double], w: Double, src: Long,
                         dsts: Array[Long], ws: Array[Double])

/** A receiver's partial fold: its state and out-edge list (null until the
  * state record arrives, and `key` with them), the gathered messages and
  * the hub references still to resolve.
  */
final case class RoundBuf(key: Long, h: Array[Double], dsts: Array[Long], ws: Array[Double], agg: Agg,
                          hubs: List[(Long, Double)])

/** A vertex record after the round: the new state and the out-edge list,
  * handed on unchanged.
  */
final case class RoundOut(id: Long, h: Array[Double], dsts: Array[Long], ws: Array[Double])

/** The fold of one MR round. `reduce` only gathers, so a map task may run it
  * over its own records first ([[combine]], the combiner); `finish` resolves
  * the hub references from the broadcast payloads and runs `apply_node`. A
  * new message is merged on the left, so a [[Unioned]] list grows by
  * prepending.
  *
  * For a `readsDst` layer the gathered messages are raw source payloads,
  * kept as a [[Unioned]] list; `finish` computes the receiver's payload and
  * runs `apply_edge` on each of them and on each hub payload.
  */
final class RoundFold(layer: GasLayer, hubPayloads: Option[Broadcast[Map[Long, Array[Double]]]])
    extends Serializable {

  private val readsDst = layer.signature.readsDst

  val zero: RoundBuf = RoundBuf(0L, null, null, null, EmptyAgg, Nil)

  def reduce(b: RoundBuf, r: RoundIn): RoundBuf = {
    val s = if (r.h == null) b else withState(b, r.key, r.h, r.dsts, r.ws)
    if (r.m != null) {
      val in = if (readsDst) Unioned((r.m, r.w) :: Nil) else layer.initAgg(r.m, r.w)
      s.copy(agg = Agg.merge(in, s.agg))
    }
    else if (r.h == null) s.copy(hubs = (r.src, r.w) :: s.hubs)
    else s
  }

  private def withState(b: RoundBuf, key: Long, h: Array[Double], dsts: Array[Long], ws: Array[Double]): RoundBuf = {
    require(b.h == null, s"duplicate vertex id $key in the node table")
    b.copy(key = key, h = h, dsts = dsts, ws = ws)
  }

  /** In-mapper combining (Lin & Schatz, MLG 2010): folds one map task's
    * records per receiver in a hash map and emits one record per receiver,
    * its state and list if the task held them and its gathered aggregate,
    * hub references resolved, as one message ([[RoundFold.asMessage]]). The
    * reduce folds these like any other record, so the result is exact
    * however a receiver's records are split; that is why, past `cap`
    * receivers, the map can be emitted and cleared to bound a task's memory.
    */
  def combine(records: Iterator[RoundIn], cap: Int = RoundFold.CombineCap): Iterator[RoundIn] = {
    require(!readsDst, "a layer that reads the receiver's payload cannot combine map-side")
    Iterator.continually {
      val bufs = mutable.HashMap.empty[Long, RoundBuf]
      while (bufs.size < cap && records.hasNext) {
        val r = records.next()
        bufs.update(r.key, reduce(bufs.getOrElse(r.key, zero), r))
      }
      bufs
    }.takeWhile(_.nonEmpty).flatMap(_.iterator.flatMap { case (key, b) =>
      val (m, w) = gathered(b) match {
        case EmptyAgg => (null, 0.0)
        case agg      => RoundFold.asMessage(agg)
      }
      if (b.h == null && m == null) None else Some(RoundIn(key, b.h, m, w, 0L, b.dsts, b.ws))
    })
  }

  /** `b`'s gathered messages with its hub references resolved (a hub with no
    * node row has no payload and sends nothing); for a `readsDst` layer,
    * which needs the receiver's state, also `apply_edge` on each raw payload.
    */
  private def gathered(b: RoundBuf): Agg = {
    val dst = if (readsDst) layer.scatterPayload(b.h) else null
    def message(p: Array[Double], w: Double): Agg =
      layer.initAgg(layer.applyEdge(if (readsDst) VecOps.concat(p, dst) else p, w), w)
    val own = b.agg match {
      case Unioned(raw) if readsDst => raw.foldLeft(EmptyAgg: Agg) { case (acc, (p, w)) => Agg.merge(message(p, w), acc) }
      case agg                      => agg
    }
    b.hubs.foldLeft(own) { case (acc, (src, w)) =>
      hubPayloads.flatMap(_.value.get(src)).fold(acc)(p => Agg.merge(message(p, w), acc))
    }
  }

  /** None for a key with no state: messages to a missing vertex are dropped. */
  def finish(b: RoundBuf): Option[RoundOut] =
    Option(b.h).map(h => RoundOut(b.key, layer.applyNode(h, gathered(b)), b.dsts, b.ws))
}

object RoundFold {

  /** The most receivers one map task folds before it emits them and starts
    * over: far above a benchmark task's few thousand, and a bound on the
    * combiner's memory where a task sees more.
    */
  val CombineCap = 65536

  /** A combined aggregate as the one message `(m, w)` that the layer's
    * `initAgg` lifts back to it: `Pooled(m, w)` (SAGE), or a [[SoftmaxPool]]
    * whose state is itself a message, its weight unused (GAT's `initAgg`).
    */
  def asMessage(agg: Agg): (Array[Double], Double) = agg match {
    case Pooled(s, w)      => (s, w)
    case SoftmaxPool(_, s) => (s, 1.0)
    case other             => throw new IllegalArgumentException(s"${other.getClass.getSimpleName} is not one message")
  }
}
