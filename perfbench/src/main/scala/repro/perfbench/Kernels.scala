package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.util.{AccumulatorV2, LongAccumulator}
import repro.core._

/** Max-of-longs accumulator, for the longest union list. */
final class MaxAccumulator extends AccumulatorV2[Long, Long] {
  private var m = 0L
  def isZero: Boolean = m == 0L
  def copy(): MaxAccumulator = { val c = new MaxAccumulator; c.m = m; c }
  def reset(): Unit = m = 0L
  def add(v: Long): Unit = if (v > m) m = v
  def merge(other: AccumulatorV2[Long, Long]): Unit = add(other.value)
  def value: Long = m
}

/** Executor-side call counts and nanoseconds of the GAS kernels. */
final case class KernelCounters(
    payloadCalls: LongAccumulator, payloadNs: LongAccumulator, edgeNs: LongAccumulator,
    nodeCalls: LongAccumulator, nodeNs: LongAccumulator,
    unionMsgs: LongAccumulator, unionMax: MaxAccumulator) {

  def reset(): Unit = productIterator.foreach { case a: AccumulatorV2[_, _] => a.reset() }

  /** The model with every layer wrapped in a [[CountingLayer]]. */
  def wrap(model: GnnModel): GnnModel = model.copy(layers = model.layers.map(CountingLayer(_, this)))
}

object KernelCounters {
  def apply(sc: SparkContext): KernelCounters = {
    def acc(name: String) = sc.longAccumulator(s"perfbench.$name")
    val max = new MaxAccumulator
    sc.register(max, "perfbench.union_max")
    KernelCounters(acc("payload_calls"), acc("payload_ns"), acc("edge_ns"),
      acc("node_calls"), acc("node_ns"), acc("union_msgs"), max)
  }
}

/** A delegating layer that counts and times the kernel calls. The backends
  * only see the [[GasLayer]] trait, so they run unchanged.
  */
final case class CountingLayer(inner: GasLayer, k: KernelCounters) extends GasLayer {
  def inDim: Int = inner.inDim
  def outDim: Int = inner.outDim
  def partialGather: Boolean = inner.partialGather
  def signature: LayerSig = inner.signature

  @inline private def timed[T](ns: LongAccumulator)(body: => T): T = {
    val t0 = System.nanoTime()
    val r = body
    ns.add(System.nanoTime() - t0)
    r
  }

  def scatterPayload(h: Array[Double]): Array[Double] = {
    k.payloadCalls.add(1L)
    timed(k.payloadNs)(inner.scatterPayload(h))
  }

  def applyEdge(payload: Array[Double], w: Double): Array[Double] =
    timed(k.edgeNs)(inner.applyEdge(payload, w))

  def initAgg(msg: Array[Double], w: Double): Agg = inner.initAgg(msg, w)

  def applyNode(h: Array[Double], agg: Agg): Array[Double] = {
    agg match {
      case Unioned(msgs) =>
        val n = msgs.length.toLong
        k.unionMsgs.add(n)
        k.unionMax.add(n)
      case _ =>
    }
    k.nodeCalls.add(1L)
    timed(k.nodeNs)(inner.applyNode(h, agg))
  }
}
