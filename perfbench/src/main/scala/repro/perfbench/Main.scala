package repro.perfbench

import java.io.File
import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter}
import javax.management.openmbean.CompositeData
import com.sun.management.GarbageCollectionNotificationInfo
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import org.apache.spark.perfbench.BusDrain
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.batch.BatchBackend
import repro.batch.BatchBackend.BatchOpts
import repro.core.{GnnModel, LocalGraph, LocalInference}
import repro.graphgen.GraphGen
import repro.jobs.JobSession
import repro.pregel.PregelBackend

/** Full-graph inference benchmark.
  *
  * Closed loop: one client issues one op at a time, alternating the two
  * backends. An op is one backend call plus collecting every output row to
  * the driver, checked against a `LocalInference` reference.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
  *
  * With `--trace 0` it prints the end-to-end metrics. With `--trace 1` it
  * spends half the time on untraced ops and half on traced ones (counting
  * kernels, job and stage spans), prints the per-layer metrics and writes
  * the spans to DIR/spans-WORKLOAD-SEED.jsonl.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, workDir: File)

  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 5
  /** Untimed reps after the last set-up. */
  val WarmupReps = 4
  /** Fewest reps (one op per backend each) in a measuring phase. */
  val MinReps = 2
  val Backends: Seq[String] = Seq("pregel", "mr")

  /** One set-up: session, inputs and the reference output. */
  final case class Setup(spark: SparkSession, listener: OpListener, nodes: DataFrame, edges: DataFrame,
                         graph: LocalGraph, ref: Map[Long, Array[Double]], inputRdds: Set[Int],
                         sessionS: Double, genS: Double, localS: Double, totalS: Double)

  final case class KernelSnap(payloadCalls: Long, payloadNs: Long, edgeNs: Long,
                              nodeCalls: Long, nodeNs: Long, unionMsgs: Long, unionMax: Long)

  final case class Op(backend: String, rep: Int, group: String, wallS: Double, startMs: Long, endMs: Long,
                      totals: OpTotals, kernels: Option[KernelSnap], gcMs: Long, persistedLeft: Int,
                      spillBytes: Long, failure: Option[String])

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(get("workload"), get("seed").toLong, get("seconds").toDouble, get("trace") == "1",
      new File(get("work-dir")))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    run(args)
    sys.exit(0)
  }

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def gcMillis(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def parquetBytes(dir: File): Long =
    if (!dir.exists()) 0L
    else java.nio.file.Files.walk(dir.toPath).iterator().asScala
      .filter(p => p.getFileName.toString.endsWith(".parquet")).map(_.toFile.length).sum

  private def deleteTree(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles()).foreach(_.foreach(deleteTree))
    f.delete()
  }

  def setUp(w: Workload): Setup = {
    val t0 = System.nanoTime()
    val spark = JobSession.make("perfbench")
    val sessionS = secondsSince(t0)
    val listener = new OpListener
    spark.sparkContext.addSparkListener(listener)

    val tGen = System.nanoTime()
    // local checkpoints survive the per-op clearCache, so inputs are made once
    val nodes = GraphGen.nodes(spark, w.spec).localCheckpoint(eager = true)
    val edges = GraphGen.edges(spark, w.spec).localCheckpoint(eager = true)
    val genS = secondsSince(tGen)
    val inputRdds = spark.sparkContext.getPersistentRDDs.keySet.toSet

    val graph = GraphGen.toLocal(nodes, edges, w.spec.nClasses)
    val tLocal = System.nanoTime()
    val out = LocalInference.forward(graph, w.model)
    val localS = secondsSince(tLocal)
    val ref = graph.ids.indices.map(i => graph.ids(i) -> out.row(i)).toMap
    Setup(spark, listener, nodes, edges, graph, ref, inputRdds, sessionS, genS, localS, secondsSince(t0))
  }

  /** Runs the op loop and reports. */
  def run(a: Args): Unit = {
    val w = Workloads(a.workload, a.seed)
    a.workDir.mkdirs()
    val tally = new Tally
    val heap = new HeapMonitor
    var opSeq = 0

    def runOp(s: Setup, backend: String, rep: Int, counters: Option[KernelCounters]): Op = {
      val sc = s.spark.sparkContext
      // rep isolation: nothing an earlier op cached or persisted survives
      s.spark.catalog.clearCache()
      sc.getPersistentRDDs.foreach { case (id, rdd) => if (!s.inputRdds(id)) rdd.unpersist(blocking = true) }
      counters.foreach(_.reset())
      val model: GnnModel = counters.fold(w.model)(_.wrap(w.model))
      opSeq += 1
      val group = f"perfbench-$opSeq%05d-$backend"
      val spill = new File(a.workDir, s"spill/$group")
      // no description: SQL executions then carry the program's callsite
      sc.setJobGroup(group, null)
      val gc0 = gcMillis()
      var wallS = 0.0
      var startMs = 0L
      var endMs = 0L
      val result = Check.attempt({
        startMs = System.currentTimeMillis()
        val t0 = System.nanoTime()
        val rows =
          try {
            val out = backend match {
              case "pregel" => PregelBackend.run(s.spark, s.nodes, s.edges, model)
              case "mr" => BatchBackend.run(s.spark, s.nodes, s.edges, model,
                BatchOpts(spillDir = Some(spill.getAbsolutePath)))
            }
            out.collect()
          } finally {
            wallS = secondsSince(t0)
            endMs = System.currentTimeMillis()
          }
        rows.map(r => (r.getLong(0), r.getSeq[Double](1).toArray))
      }, s.ref)
      sc.clearJobGroup()
      BusDrain(sc)
      val (totals, open) = s.listener.close(group)
      val failure = result.orElse(Option.when(open.nonEmpty)(s"jobs ${open.mkString(",")} still running after the op"))
      val gcMs = gcMillis() - gc0
      val left = sc.getPersistentRDDs.keys.count(id => !s.inputRdds(id))
      val spillBytes = parquetBytes(spill)
      deleteTree(spill)
      tally.record(failure)
      System.err.println(f"[perfbench] op $group rep $rep: $wallS%.3f s, ${totals.jobs} jobs" +
        failure.fold("")(f => s", FAILED: $f"))
      val kernels = counters.map(k => KernelSnap(k.payloadCalls.value, k.payloadNs.value, k.edgeNs.value,
        k.nodeCalls.value, k.nodeNs.value, k.unionMsgs.value, k.unionMax.value))
      Op(backend, rep, group, wallS, startMs, endMs, totals, kernels, gcMs, left, spillBytes, failure)
    }

    def measure(s: Setup, budgetS: Double, counters: Option[KernelCounters]): Seq[Op] = {
      val ops = ArrayBuffer.empty[Op]
      val t0 = System.nanoTime()
      var rep = 0
      while (rep < MinReps || secondsSince(t0) < budgetS) {
        Backends.foreach(b => ops += runOp(s, b, rep, counters))
        rep += 1
      }
      ops.toSeq
    }

    // --- set-up, several times; the last one's session is kept ---
    val setups = ArrayBuffer.empty[Setup]
    (0 until SetupReps).foreach { _ =>
      setups.lastOption.foreach(_.spark.stop())
      val s = setUp(w)
      setups += s
      println(f"set-up ${setups.size}: session ${s.sessionS}%.2f s, inputs ${s.genS}%.2f s, " +
        f"reference ${s.localS}%.2f s, total ${s.totalS}%.2f s")
    }
    val s = setups.last
    // warm-up: JIT, codegen, GraphX and parquet init settle over the first few ops
    (0 until WarmupReps).foreach(r => Backends.foreach(b => runOp(s, b, r - WarmupReps, None)))

    val phaseS = if (a.trace) a.seconds / 2 else a.seconds
    heap.on = true
    val timed = measure(s, phaseS, None)
    heap.on = false
    if (heap.peakBytes == 0L) heap.peakBytes = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed

    val traced =
      if (!a.trace) Seq.empty
      else {
        s.listener.tracing = true
        measure(s, phaseS, Some(KernelCounters(s.spark.sparkContext)))
      }

    // every op of a backend must shuffle the same records
    val consistent = Backends.forall { b =>
      val recs = (timed ++ traced).filter(_.backend == b).map(_.totals.shuffleWriteRecords).distinct
      if (recs.size > 1) System.err.println(s"[perfbench] $b shuffle records differ across ops: ${recs.mkString(", ")}")
      recs.size == 1
    }

    val (metrics, guards) =
      if (a.trace) Trace.report(a, w, s, setups.toSeq, timed, traced)
      else (endToEnd(setups.toSeq, timed, heap), true)
    s.spark.stop()

    val correct = tally.failed == 0 && consistent && guards
    val body = metrics.map { case (k, (v, u)) =>
      s""""$k": {"value": ${java.lang.Double.toString(v)}, "unit": "$u"}""" }.mkString(", ")
    println(s"""{"correct": $correct, "attempted": ${tally.attempted}, "failed": ${tally.failed}, "metrics": {$body}}""")
  }

  /** The end-to-end metrics of an untraced run, printed as a table too. */
  def endToEnd(setups: Seq[Setup], ops: Seq[Op], heap: HeapMonitor): Seq[(String, (Double, String))] = {
    val rows = ArrayBuffer.empty[(String, Seq[Double], String)]
    rows += (("setup_s", setups.map(_.totalS), "s"))
    Backends.foreach { b =>
      val bo = ops.filter(_.backend == b)
      rows += ((s"$b.infer_s", bo.map(_.wallS), "s"))
      rows += ((s"$b.cpu_s", bo.map(_.totals.runMs / 1e3), "s"))
      rows += ((s"$b.shuffle_mb", bo.map(_.totals.shuffleWriteBytes / 1e6), "MB"))
      rows += ((s"$b.shuffle_records", bo.map(_.totals.shuffleWriteRecords.toDouble), "count"))
    }
    rows += (("mr.spill_mb", ops.filter(_.backend == "mr").map(_.spillBytes / 1e6), "MB"))
    rows += (("heap_peak_mb", Seq(heap.peakBytes / 1e6), "MB"))
    println(f"${"metric"}%-22s ${"median"}%14s ${"unit"}%-6s ${"n"}%3s ${"min"}%14s ${"max"}%14s")
    rows.foreach { case (name, xs, unit) =>
      println(f"$name%-22s ${median(xs)}%14.4f $unit%-6s ${xs.size}%3d ${xs.min}%14.4f ${xs.max}%14.4f")
    }
    rows.toSeq.map { case (name, xs, unit) => name -> (median(xs), unit) }
  }
}

/** Peak JVM heap in use right after a collection, over the GCs that end
  * while `on`: the live data an op holds, plus old garbage not yet
  * reclaimed. In local mode the driver and the executor share this JVM.
  */
final class HeapMonitor {
  @volatile var on = false
  @volatile var peakBytes = 0L
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet

  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case emitter: NotificationEmitter => emitter.addNotificationListener((n: Notification, _: AnyRef) =>
      if (on && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
          .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
        peakBytes = math.max(peakBytes, used)
      }, null, null)
    case _ =>
  }
}
