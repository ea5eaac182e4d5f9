/**
 * @file
 * Layer interface and the simple stateless/elementwise layers.
 *
 * Layers process one sample at a time — inputs are (channels x time)
 * matrices or (features x 1) vectors — and cache whatever the backward
 * pass needs. Gradients accumulate across samples in the layer's grad
 * buffers until the optimizer consumes them, giving exact minibatch
 * gradients without a batch dimension in the code.
 *
 * Layers may additionally implement the *batched* interface
 * (forwardBatch/backwardBatch): B same-shaped samples are concatenated
 * along the column axis into one (rows x B*T) matrix, sample b occupying
 * columns [b*T, (b+1)*T). Batched passes replace B small matrix-vector
 * products with one wide GEMM — the training-loop hot path at paper
 * scale — while computing the same minibatch gradient (summation order
 * differs, so results are numerically close but not bitwise equal to B
 * per-sample passes).
 */

#ifndef BF_ML_LAYER_HH
#define BF_ML_LAYER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "ml/matrix.hh"

namespace bigfish::ml {

/** Base class of every network layer. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Computes the layer's output for one sample.
     * @param in The input sample.
     * @param train True during training (enables dropout etc.).
     */
    virtual Matrix forward(const Matrix &in, bool train) = 0;

    /**
     * Backpropagates through the most recent forward() call.
     * Parameter gradients are *accumulated* into the grad buffers.
     * @param grad_out dLoss/dOutput.
     * @return dLoss/dInput.
     */
    virtual Matrix backward(const Matrix &grad_out) = 0;

    /** True when the batched interface below is implemented. */
    virtual bool supportsBatch() const { return false; }

    /**
     * forward() over @p samples same-shaped samples packed column-wise
     * into one (rows x samples*T) matrix. Layers without a batched
     * implementation panic; gate on supportsBatch().
     */
    virtual Matrix forwardBatch(const Matrix &in, std::size_t samples,
                                bool train);

    /** Backpropagates through the most recent forwardBatch() call. */
    virtual Matrix backwardBatch(const Matrix &grad_out,
                                 std::size_t samples);

    /**
     * backwardBatch() for a caller that never reads dLoss/dInput (the
     * training step on a network's first layer): accumulates the same
     * parameter gradients and may skip the input gradient. The default
     * runs backwardBatch() and drops its result.
     */
    virtual void backwardBatchParamsOnly(const Matrix &grad_out,
                                         std::size_t samples);

    /** Trainable parameter tensors (empty for stateless layers). */
    virtual std::vector<Matrix *> params() { return {}; }

    /** Gradient buffers aligned with params(). */
    virtual std::vector<Matrix *> grads() { return {}; }

    /** Clears all gradient buffers. */
    void zeroGrads();

    /** Layer name for diagnostics. */
    virtual std::string name() const = 0;
};

/** Rectified linear unit. */
class ReLU : public Layer
{
  public:
    Matrix forward(const Matrix &in, bool train) override;
    Matrix backward(const Matrix &grad_out) override;
    bool supportsBatch() const override { return true; }
    Matrix forwardBatch(const Matrix &in, std::size_t samples,
                        bool train) override;
    Matrix backwardBatch(const Matrix &grad_out,
                         std::size_t samples) override;
    std::string name() const override { return "relu"; }

  private:
    /**
     * Sign mask of the last forward input (1.0f = positive, 0.0f
     * otherwise), kept instead of the full input copy the layer used
     * to store: backward only needs the sign. Float, not byte, lanes:
     * a uint8 mask store in the middle of a float select defeats the
     * autovectorizer, and at the conv front-end these loops stream
     * megabytes per call.
     */
    std::vector<float> mask_;
};

/** Non-overlapping 1-D max pooling along the time axis. */
class MaxPool1D : public Layer
{
  public:
    /** @param pool Window (and stride) size; paper uses 4. */
    explicit MaxPool1D(std::size_t pool);

    Matrix forward(const Matrix &in, bool train) override;
    Matrix backward(const Matrix &grad_out) override;
    bool supportsBatch() const override { return true; }
    Matrix forwardBatch(const Matrix &in, std::size_t samples,
                        bool train) override;
    Matrix backwardBatch(const Matrix &grad_out,
                         std::size_t samples) override;
    std::string name() const override { return "maxpool1d"; }

  private:
    /** Pooling pass shared by the single and batched paths: windows
     * never cross the per-sample boundary. */
    Matrix pool(const Matrix &in, std::size_t samples);

    std::size_t pool_;
    /**
     * Winning input column per output cell; 32-bit since pooled rows
     * are far narrower than 4G columns, halving the stream backward
     * re-reads.
     */
    std::vector<std::uint32_t> argmax_;
    std::size_t inRows_ = 0, inCols_ = 0;
};

/** Inverted dropout; identity at inference time. */
class Dropout : public Layer
{
  public:
    /**
     * @param rate Probability of zeroing an activation (paper: 0.7).
     * @param seed Seed for the mask stream.
     */
    Dropout(double rate, std::uint64_t seed);

    Matrix forward(const Matrix &in, bool train) override;
    Matrix backward(const Matrix &grad_out) override;
    bool supportsBatch() const override { return true; }
    Matrix forwardBatch(const Matrix &in, std::size_t samples,
                        bool train) override;
    Matrix backwardBatch(const Matrix &grad_out,
                         std::size_t samples) override;
    std::string name() const override { return "dropout"; }

  private:
    double rate_;
    Rng rng_;
    Matrix mask_;
    bool lastTrain_ = false;
};

/** Flattens any input to a (size x 1) column vector. */
class Flatten : public Layer
{
  public:
    Matrix forward(const Matrix &in, bool train) override;
    Matrix backward(const Matrix &grad_out) override;
    bool supportsBatch() const override { return true; }
    Matrix forwardBatch(const Matrix &in, std::size_t samples,
                        bool train) override;
    Matrix backwardBatch(const Matrix &grad_out,
                         std::size_t samples) override;
    std::string name() const override { return "flatten"; }

  private:
    std::size_t inRows_ = 0, inCols_ = 0;
};

/** Fully connected layer: out = W * in + b for (features x 1) inputs. */
class Dense : public Layer
{
  public:
    /**
     * @param in_features Input dimensionality.
     * @param out_features Output dimensionality.
     * @param rng Weight initialization stream.
     */
    Dense(std::size_t in_features, std::size_t out_features, Rng &rng);

    Matrix forward(const Matrix &in, bool train) override;
    Matrix backward(const Matrix &grad_out) override;
    bool supportsBatch() const override { return true; }
    Matrix forwardBatch(const Matrix &in, std::size_t samples,
                        bool train) override;
    Matrix backwardBatch(const Matrix &grad_out,
                         std::size_t samples) override;
    std::vector<Matrix *> params() override { return {&w_, &b_}; }
    std::vector<Matrix *> grads() override { return {&gw_, &gb_}; }
    std::string name() const override { return "dense"; }

  private:
    Matrix w_, b_, gw_, gb_;
    Matrix input_;
};

} // namespace bigfish::ml

#endif // BF_ML_LAYER_HH
